// Mergeable metric digests: the wire-compact, fold-friendly form of a node's
// instrumentation that the cluster observability plane ships up the heartbeat
// tree (members → group leader → root). A Digest is a flat map of
// family-named counters, gauges, and histogram snapshots; digests from
// different nodes merge by name, so the names must be node-neutral ("core/
// remote_puts", not "core/node-3/remote_puts"). The ClusterStore at each
// node keeps the freshest digest per contributor with a staleness age in
// heartbeat rounds; the root's store covers the whole cluster after one
// member→leader round plus one leader→root round.
//
// Everything here is deterministic: encoding walks names in sorted order,
// ages advance only on explicit Tick calls, and no wall clock is read — DES
// scale sims assert byte-identical aggregates across runs.
package metrics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"godm/internal/wire"
)

// Digest is a mergeable point-in-time copy of one node's instrumentation,
// keyed by node-neutral metric names (conventionally "<family>/<metric>").
type Digest struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistogramSnapshot
}

// NewDigest returns an empty digest.
func NewDigest() Digest {
	return Digest{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistogramSnapshot{},
	}
}

// Merge folds other into d: counters and gauges sum by name (gauges sum
// because the cluster-level reading of "free bytes per node" is total free
// bytes), histograms merge bucket-wise. A histogram bound mismatch aborts
// with ErrBoundsMismatch; d may then hold a partial merge and should be
// discarded.
func (d *Digest) Merge(other Digest) error {
	if d.Counters == nil {
		d.Counters = map[string]int64{}
	}
	if d.Gauges == nil {
		d.Gauges = map[string]int64{}
	}
	if d.Hists == nil {
		d.Hists = map[string]HistogramSnapshot{}
	}
	for k, v := range other.Counters {
		d.Counters[k] += v
	}
	for k, v := range other.Gauges {
		d.Gauges[k] += v
	}
	for k, hs := range other.Hists {
		merged := d.Hists[k]
		if err := merged.Merge(hs); err != nil {
			return fmt.Errorf("%w: histogram %q", err, k)
		}
		d.Hists[k] = merged
	}
	return nil
}

// digestInto snapshots the registry's instruments into d under prefix
// ("<prefix>/<metric>"). Histograms are snapshotted outside the registry
// lock, same discipline as WritePrometheus.
func (r *Registry) digestInto(d Digest, prefix string) {
	r.mu.Lock()
	for k, c := range r.counters {
		d.Counters[prefix+"/"+k] = c.Value()
	}
	for k, g := range r.gauges {
		d.Gauges[prefix+"/"+k] = g.Value()
	}
	histRefs := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		histRefs[k] = h
	}
	r.mu.Unlock()
	for k, h := range histRefs {
		d.Hists[prefix+"/"+k] = h.Snapshot()
	}
}

// DigestRegistries builds a digest from named registries. The map keys are
// the node-neutral family prefixes under which each registry's metrics
// appear ("core", "replication"), NOT the registries' own (often per-node)
// labels — digests from different nodes must merge by name.
func DigestRegistries(regs map[string]*Registry) Digest {
	d := NewDigest()
	for prefix, r := range regs {
		if r != nil {
			r.digestInto(d, prefix)
		}
	}
	return d
}

// NodeDigest is one contributor's digest as held in a ClusterStore: the
// origin node, the origin's own monotonic sequence number (so stale or
// duplicate relays never regress a fresher copy), and the holder's staleness
// age in heartbeat rounds since the digest was last refreshed.
type NodeDigest struct {
	Node int64
	Seq  uint64
	Age  uint32
	D    Digest
}

// ClusterStore is the per-node fold point of the observability plane: the
// freshest digest heard from each contributor. Members hold their own digest
// plus whatever their leader beats back; a group leader holds its members;
// the root holds everyone.
type ClusterStore struct {
	mu     sync.Mutex
	self   int64
	byNode map[int64]*NodeDigest
}

// NewClusterStore returns an empty store owned by node self.
func NewClusterStore(self int64) *ClusterStore {
	return &ClusterStore{self: self, byNode: map[int64]*NodeDigest{}}
}

// Self reports the owning node.
func (s *ClusterStore) Self() int64 { return s.self }

// Update adopts nd if it is strictly newer (higher Seq) than the stored copy
// for its origin, reporting whether it was adopted. Duplicate and
// out-of-order relays are dropped, so relay paths need no dedup of their own.
func (s *ClusterStore) Update(nd NodeDigest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.byNode[nd.Node]; ok && cur.Seq >= nd.Seq {
		return false
	}
	cp := nd
	s.byNode[nd.Node] = &cp
	return true
}

// Tick advances every non-self contributor's staleness age by one heartbeat
// round. The owner calls it once per round; a contributor whose digest keeps
// refreshing stays near age 0, a silent one ages visibly.
func (s *ClusterStore) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, nd := range s.byNode {
		if id != s.self {
			nd.Age++
		}
	}
}

// Drop forgets a contributor (a decommissioned node must leave the
// aggregate, not linger at ever-growing age).
func (s *ClusterStore) Drop(node int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byNode, node)
}

// Len reports how many contributors the store tracks.
func (s *ClusterStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byNode)
}

// Snapshot returns the stored digests sorted by node ID. The digests are
// shared references: callers render or merge them, never mutate.
func (s *ClusterStore) Snapshot() []NodeDigest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeDigest, 0, len(s.byNode))
	for _, nd := range s.byNode {
		out = append(out, *nd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Get returns the stored digest for node, if any.
func (s *ClusterStore) Get(node int64) (NodeDigest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nd, ok := s.byNode[node]
	if !ok {
		return NodeDigest{}, false
	}
	return *nd, true
}

// Aggregate merges every stored digest into one cluster-level digest and
// reports the contributor count.
func Aggregate(set []NodeDigest) (Digest, error) {
	agg := NewDigest()
	for _, nd := range set {
		if err := agg.Merge(nd.D); err != nil {
			return Digest{}, fmt.Errorf("metrics: aggregate node %d: %w", nd.Node, err)
		}
	}
	return agg, nil
}

// ---- wire encoding ----
//
// Compact fixed-width big-endian framing in the style of the cluster map
// sync codec. Histogram bucket counts ship sparsely (index, count) pairs —
// a latency histogram has ~31 buckets of which a handful are occupied — and
// the standard latency bounds ship as a one-byte schema tag instead of 31
// explicit bounds.

// ErrBadDigest is returned when a digest wire payload is malformed.
var ErrBadDigest = errors.New("metrics: malformed digest payload")

// maxDigestEntries bounds names per section and nodes per set; the cursor
// further holds every count to what the remaining input can carry.
const maxDigestEntries = 1 << 12

// Histogram bound schemas on the wire.
const (
	histSchemaDefault  = 0 // the NewLatencyHistogram bounds, omitted from the wire
	histSchemaExplicit = 1 // bounds follow explicitly
)

// defaultLatencyBounds is the schema shared by every NewLatencyHistogram.
var defaultLatencyBounds = NewLatencyHistogram().bounds

func isDefaultBounds(bounds []time.Duration) bool {
	return slices.Equal(bounds, defaultLatencyBounds)
}

// decode runs read over b and returns the bytes it left; any read the cursor
// refused makes the whole payload ErrBadDigest.
func decode[T any](b []byte, read func(*wire.Reader) T) (T, []byte, error) {
	r := wire.NewReader(b)
	v := read(&r)
	if r.Err() != nil {
		var zero T
		return zero, nil, ErrBadDigest
	}
	return v, r.Rest(), nil
}

// A name is [u8 len][bytes], truncated to 255 bytes.
func appendName(b []byte, name string) []byte {
	if len(name) > 255 {
		name = name[:255]
	}
	b = append(b, byte(len(name)))
	return append(b, name...)
}

func readName(r *wire.Reader) string { return string(r.Bytes(int(r.U8()))) }

// A section — counters, gauges, histograms — is [u16 n] + n x [name][value],
// names in sorted order; a counter or gauge value is one i64.
func appendSection[V any](b []byte, m map[string]V, value func([]byte, V) []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(m)))
	for _, k := range sortedKeys(m) {
		b = value(appendName(b, k), m[k])
	}
	return b
}

// readSection stops at the first refused read instead of walking out the
// count on zeros: a histogram allocates its buckets before it reads them.
func readSection[V any](r *wire.Reader, minValueBytes int, value func(*wire.Reader) V) map[string]V {
	n := r.Count(2, maxDigestEntries, 1+minValueBytes)
	m := make(map[string]V, n)
	for ; n > 0 && r.Err() == nil; n-- {
		k := readName(r)
		m[k] = value(r)
	}
	return m
}

func appendI64(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }

// One histogram snapshot is [schema][bounds?][count][sum][min][max]
// [u16 nonzero]{[u16 idx][i64 cnt]}…, where explicit bounds are
// [u16 n] + n x [i64 bound].
const (
	minHistogramBytes = 1 + 4*8 + 2
	sparseCountBytes  = 2 + 8
)

func appendHistogram(b []byte, s HistogramSnapshot) []byte {
	if isDefaultBounds(s.Bounds) {
		b = append(b, histSchemaDefault)
	} else {
		b = append(b, histSchemaExplicit)
		b = binary.BigEndian.AppendUint16(b, uint16(len(s.Bounds)))
		for _, bound := range s.Bounds {
			b = binary.BigEndian.AppendUint64(b, uint64(bound))
		}
	}
	b = binary.BigEndian.AppendUint64(b, uint64(s.Count))
	b = binary.BigEndian.AppendUint64(b, uint64(s.Sum))
	b = binary.BigEndian.AppendUint64(b, uint64(s.Min))
	b = binary.BigEndian.AppendUint64(b, uint64(s.Max))
	nonzero := 0
	for _, c := range s.Counts {
		if c != 0 {
			nonzero++
		}
	}
	b = binary.BigEndian.AppendUint16(b, uint16(nonzero))
	for i, c := range s.Counts {
		if c != 0 {
			b = binary.BigEndian.AppendUint16(b, uint16(i))
			b = binary.BigEndian.AppendUint64(b, uint64(c))
		}
	}
	return b
}

func readHistogram(r *wire.Reader) HistogramSnapshot {
	var s HistogramSnapshot
	switch r.U8() {
	case histSchemaDefault:
		s.Bounds = append([]time.Duration(nil), defaultLatencyBounds...)
	case histSchemaExplicit:
		s.Bounds = make([]time.Duration, r.Count(2, maxDigestEntries, 8))
		for i := range s.Bounds {
			s.Bounds[i] = time.Duration(r.I64())
		}
	default:
		r.Fail()
	}
	s.Count = r.I64()
	s.Sum = time.Duration(r.I64())
	s.Min = time.Duration(r.I64())
	s.Max = time.Duration(r.I64())
	s.Counts = make([]int64, len(s.Bounds)+1)
	for n := r.Count(2, len(s.Counts), sparseCountBytes); n > 0; n-- {
		idx := int(r.U16())
		if idx >= len(s.Counts) {
			r.Fail()
			break
		}
		s.Counts[idx] = r.I64()
	}
	return s
}

// AppendDigest appends d's wire form to b: the counter, gauge and histogram
// sections.
func AppendDigest(b []byte, d Digest) []byte {
	b = appendSection(b, d.Counters, appendI64)
	b = appendSection(b, d.Gauges, appendI64)
	return appendSection(b, d.Hists, appendHistogram)
}

func readDigest(r *wire.Reader) Digest {
	var d Digest
	d.Counters = readSection(r, 8, (*wire.Reader).I64)
	d.Gauges = readSection(r, 8, (*wire.Reader).I64)
	d.Hists = readSection(r, minHistogramBytes, readHistogram)
	return d
}

// DecodeDigest decodes one digest, returning the remaining bytes.
func DecodeDigest(b []byte) (Digest, []byte, error) { return decode(b, readDigest) }

// minNodeDigestBytes is a contributor record with three empty sections.
const minNodeDigestBytes = 8 + 8 + 4 + 3*2

// header is the fixed part of a contributor record: [i64 node][u64 seq]
// [u32 age]; the digest follows.
func (nd *NodeDigest) header(w *wire.Walk) {
	wire.Field64(w, &nd.Node)
	wire.Field64(w, &nd.Seq)
	wire.Field32(w, &nd.Age)
}

// AppendNodeDigest appends one contributor record: origin, sequence,
// staleness age, then the digest.
func AppendNodeDigest(b []byte, nd NodeDigest) []byte {
	return AppendDigest(wire.Append(b, &nd, (*NodeDigest).header), nd.D)
}

func readNodeDigest(r *wire.Reader) NodeDigest {
	nd := wire.Read(r, (*NodeDigest).header)
	nd.D = readDigest(r)
	return nd
}

// DecodeNodeDigest decodes one contributor record, returning the remainder.
func DecodeNodeDigest(b []byte) (NodeDigest, []byte, error) { return decode(b, readNodeDigest) }

// AppendDigestSet appends a contributor set ([u16 n] then records).
func AppendDigestSet(b []byte, set []NodeDigest) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(set)))
	for _, nd := range set {
		b = AppendNodeDigest(b, nd)
	}
	return b
}

func readDigestSet(r *wire.Reader) []NodeDigest {
	n := r.Count(2, maxDigestEntries, minNodeDigestBytes)
	set := make([]NodeDigest, 0, n)
	for ; n > 0 && r.Err() == nil; n-- { // as in readSection
		set = append(set, readNodeDigest(r))
	}
	return set
}

// DecodeDigestSet decodes a contributor set, returning the remainder.
func DecodeDigestSet(b []byte) ([]NodeDigest, []byte, error) { return decode(b, readDigestSet) }

// ---- rendering ----

// opFamily extracts the op family from a histogram name of the form
// "<prefix>/op_<family>_latency" (the SLOSet naming convention).
func opFamily(name string) (string, bool) {
	slash := strings.LastIndexByte(name, '/')
	base := name[slash+1:]
	if !strings.HasPrefix(base, "op_") || !strings.HasSuffix(base, "_latency") {
		return "", false
	}
	fam := base[len("op_") : len(base)-len("_latency")]
	if fam == "" {
		return "", false
	}
	return fam, true
}

// OpFamilyHistogram returns the snapshot of the op family's latency
// histogram (named "<prefix>/op_<fam>_latency" under any prefix).
func (d Digest) OpFamilyHistogram(fam string) (HistogramSnapshot, bool) {
	for name, hs := range d.Hists {
		if f, ok := opFamily(name); ok && f == fam {
			return hs, true
		}
	}
	return HistogramSnapshot{}, false
}

// OpFamilies lists the op families present in d, sorted.
func (d Digest) OpFamilies() []string {
	var fams []string
	for name := range d.Hists {
		if f, ok := opFamily(name); ok {
			fams = append(fams, f)
		}
	}
	sort.Strings(fams)
	return fams
}

// freeBytesGauge is the digest name of the free receive-pool gauge shown in
// the cluster view's FREE_MIB column.
const freeBytesGauge = "core/recv_free_bytes"

// RenderClusterView writes the deterministic text form of a contributor set:
// one row per node (staleness age, free receive-pool MiB, op count, per-op-
// family p50/p99/p999, SLO good/bad), an aggregate row, then the aggregate's
// raw counters — the machine-greppable section smoke tests sum against.
func RenderClusterView(w io.Writer, set []NodeDigest) error {
	agg, err := Aggregate(set)
	if err != nil {
		return err
	}
	fams := agg.OpFamilies()
	fmt.Fprintf(w, "cluster view: %d contributors\n", len(set))
	fmt.Fprintf(w, "%-6s %4s %9s %8s %7s %5s", "NODE", "AGE", "FREE_MIB", "OPS", "GOOD", "BAD")
	for _, fam := range fams {
		fmt.Fprintf(w, " %9s %9s %9s", fam+"_p50", fam+"_p99", fam+"_p999")
	}
	fmt.Fprintln(w)
	row := func(label, age string, d Digest) {
		fmt.Fprintf(w, "%-6s %4s %9.1f %8d %7d %5d",
			label, age,
			float64(d.Gauges[freeBytesGauge])/(1<<20),
			opCount(d), sumSuffix(d.Counters, "_good"), sumSuffix(d.Counters, "_bad"))
		for _, fam := range fams {
			hs, ok := d.OpFamilyHistogram(fam)
			if !ok || hs.Count == 0 {
				fmt.Fprintf(w, " %9s %9s %9s", "-", "-", "-")
				continue
			}
			fmt.Fprintf(w, " %9s %9s %9s",
				shortDur(hs.Quantile(0.5)), shortDur(hs.Quantile(0.99)), shortDur(hs.Quantile(0.999)))
		}
		fmt.Fprintln(w)
	}
	for _, nd := range set {
		row(fmt.Sprintf("%d", nd.Node), fmt.Sprintf("%d", nd.Age), nd.D)
	}
	row("AGG", "-", agg)
	renderTierBalance(w, set, agg)
	fmt.Fprintln(w, "\naggregate counters:")
	for _, k := range sortedKeys(agg.Counters) {
		fmt.Fprintf(w, "%s %d\n", k, agg.Counters[k])
	}
	return nil
}

// renderTierBalance prints the swap-tier occupancy section — one row per
// node with pages resident on each placement tier, plus the cluster
// aggregate and demotion/promotion totals. Contributors without tier gauges
// (no tiering swap engine) render nothing, so the section only appears when
// the ladder is in play.
func renderTierBalance(w io.Writer, set []NodeDigest, agg Digest) {
	tiers := tierNames(agg)
	if len(tiers) == 0 {
		return
	}
	fmt.Fprintln(w, "\ntier balance (pages):")
	fmt.Fprintf(w, "%-6s", "NODE")
	for _, t := range tiers {
		fmt.Fprintf(w, " %15s", t)
	}
	fmt.Fprintln(w)
	row := func(label string, d Digest) {
		fmt.Fprintf(w, "%-6s", label)
		for _, t := range tiers {
			fmt.Fprintf(w, " %15d", sumTierGauge(d, t))
		}
		fmt.Fprintln(w)
	}
	for _, nd := range set {
		if len(tierNames(nd.D)) == 0 {
			continue
		}
		row(fmt.Sprintf("%d", nd.Node), nd.D)
	}
	row("AGG", agg)
	fmt.Fprintf(w, "demotions %d  promotions %d\n",
		sumBase(agg.Counters, "tier_demotions"), sumBase(agg.Counters, "tier_promotions"))
}

// tierNames lists the tier labels present in a digest's occupancy gauges
// (named "<prefix>/tier_<name>_pages"), sorted.
func tierNames(d Digest) []string {
	seen := map[string]bool{}
	for name := range d.Gauges {
		base := name[strings.LastIndexByte(name, '/')+1:]
		if strings.HasPrefix(base, "tier_") && strings.HasSuffix(base, "_pages") {
			seen[base[len("tier_"):len(base)-len("_pages")]] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// sumTierGauge sums one tier's occupancy gauge across every prefix in d.
func sumTierGauge(d Digest, tier string) int64 {
	var total int64
	for name, v := range d.Gauges {
		base := name[strings.LastIndexByte(name, '/')+1:]
		if base == "tier_"+tier+"_pages" {
			total += v
		}
	}
	return total
}

// sumBase sums counters whose base name (after any prefix) equals base.
func sumBase(counters map[string]int64, base string) int64 {
	var total int64
	for name, v := range counters {
		if name[strings.LastIndexByte(name, '/')+1:] == base {
			total += v
		}
	}
	return total
}

// opCount sums the op-family histogram counts — the "total instrumented ops"
// figure in the cluster view.
func opCount(d Digest) int64 {
	var total int64
	for name, hs := range d.Hists {
		if _, ok := opFamily(name); ok {
			total += hs.Count
		}
	}
	return total
}

// sumSuffix sums counters whose base name starts with "op_" and ends with
// suffix — the SLO good/bad totals.
func sumSuffix(counters map[string]int64, suffix string) int64 {
	var total int64
	for name, v := range counters {
		slash := strings.LastIndexByte(name, '/')
		base := name[slash+1:]
		if strings.HasPrefix(base, "op_") && strings.HasSuffix(base, suffix) {
			total += v
		}
	}
	return total
}

// shortDur renders a duration rounded to three significant units for
// fixed-width table cells.
func shortDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
