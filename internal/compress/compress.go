// Package compress implements FastSwap-style page compression with
// size-class granularities (§IV.H of the paper).
//
// FastSwap compresses 4 KB pages and bins the compressed payload into fixed
// size classes before parking it in disaggregated memory. The paper evaluates
// two policies: 2-granularity (2 KB, 4 KB) and 4-granularity (512 B, 1 KB,
// 2 KB, 4 KB), against Zswap, whose zbud allocator stores at most two
// compressed pages per physical page (an effective ratio cap of 2).
//
// The package offers a real Codec used by the library's data plane and by the
// Figure 3 experiment — an in-tree LZ block codec (lz.go: the LZ4 block
// format, no entropy stage), the LZO/LZ4 class of page compressor Zswap and
// FastSwap sit on, cheap next to a remote access — plus a Model codec that
// predicts stored sizes from a known compressibility ratio so large-scale
// simulations avoid compressing billions of synthetic pages.
package compress

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// PageSize is the unit of swap-out and compression: a 4 KB page.
const PageSize = 4096

// ErrCorrupt is returned when a compressed payload fails to decompress back
// to a full page.
var ErrCorrupt = errors.New("compress: corrupt compressed page")

// Granularity is an ascending list of size classes. The final class must be
// PageSize, which doubles as the "store uncompressed" class.
type Granularity []int

// Standard granularities from the paper.
var (
	// Two is FastSwap's 2-granularity policy: 2 KB and 4 KB classes.
	Two = Granularity{2048, 4096}
	// Four is FastSwap's 4-granularity policy: 512 B, 1 KB, 2 KB, 4 KB.
	Four = Granularity{512, 1024, 2048, 4096}
)

// Validate checks that the granularity is non-empty, strictly ascending, and
// terminates at PageSize.
func (g Granularity) Validate() error {
	if len(g) == 0 {
		return errors.New("compress: empty granularity")
	}
	for i, c := range g {
		if c <= 0 {
			return fmt.Errorf("compress: non-positive class %d", c)
		}
		if i > 0 && c <= g[i-1] {
			return fmt.Errorf("compress: classes not strictly ascending at %d", c)
		}
	}
	if g[len(g)-1] != PageSize {
		return fmt.Errorf("compress: final class %d != PageSize", g[len(g)-1])
	}
	return nil
}

// ClassFor returns the smallest class that fits n compressed bytes. Payloads
// larger than every class land in the final (PageSize) class, meaning the
// page is stored uncompressed.
func (g Granularity) ClassFor(n int) int {
	for _, c := range g {
		if n <= c {
			return c
		}
	}
	return g[len(g)-1]
}

// Compressed is one page after compression and size-class binning.
type Compressed struct {
	// Data is the compressed block, or the raw page when incompressible.
	Data []byte
	// StoredSize is the size class the payload occupies in the pool.
	StoredSize int
	// Raw reports whether Data holds the uncompressed page verbatim.
	Raw bool
}

// Codec compresses pages and entries with the LZ block codec and bins them by
// a Granularity. It holds no state beyond the granularity and is safe for
// concurrent use.
type Codec struct {
	gran Granularity
}

// NewCodec returns a codec using granularity g.
func NewCodec(g Granularity) (*Codec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Codec{gran: g}, nil
}

// Granularity returns the codec's size classes.
func (c *Codec) Granularity() Granularity { return c.gran }

// Compress compresses a PageSize page and bins it. Pages whose compressed
// form would not fit below the top class are stored raw.
func (c *Codec) Compress(page []byte) (Compressed, error) {
	if len(page) != PageSize {
		return Compressed{}, fmt.Errorf("compress: page length %d != %d", len(page), PageSize)
	}
	payload, ok := c.AppendEntry(nil, page)
	if class := c.gran.ClassFor(len(payload)); ok && class < PageSize {
		return Compressed{Data: payload, StoredSize: class}, nil
	}
	return Compressed{Data: slices.Clone(page), StoredSize: PageSize, Raw: true}, nil
}

// Decompress reverses Compress into dst, which must be PageSize long. It
// allocates nothing.
func (c *Codec) Decompress(comp Compressed, dst []byte) error {
	if len(dst) != PageSize {
		return fmt.Errorf("compress: dst length %d != %d", len(dst), PageSize)
	}
	if comp.Raw {
		if len(comp.Data) != PageSize {
			return ErrCorrupt
		}
		copy(dst, comp.Data)
		return nil
	}
	return decompressBlock(dst, comp.Data)
}

// AppendEntry compresses an arbitrary-length payload — the data-plane
// batching path parks whole entries, not just 4 KiB pages — onto the end of
// dst. It returns the extended slice and true when compression pays (the
// block is shorter than data), or dst as it was and false for incompressible
// input. With len(data) bytes of spare capacity in dst it allocates nothing,
// so one buffer can take a whole window of entries.
func (c *Codec) AppendEntry(dst, data []byte) ([]byte, bool) {
	// Under 13 bytes a block is all literals behind a token; the match
	// finder's positions are int32.
	if len(data) <= lastMatchStart || len(data) > math.MaxInt32 {
		return dst, false
	}
	// A block that fits in one byte less than the input is the only kind
	// worth having, so that is all the room the encoder is given.
	at, room := len(dst), len(data)-1
	dst = slices.Grow(dst, room)
	n, ok := compressBlock(dst[at:at+room], data)
	return dst[:at+n], ok
}

// CompressEntry is AppendEntry into a fresh buffer: the compressed bytes and
// true, or (nil, false) for incompressible input.
func (c *Codec) CompressEntry(data []byte) ([]byte, bool) {
	payload, ok := c.AppendEntry(nil, data)
	if !ok {
		return nil, false
	}
	return payload, true
}

// DecompressEntry reverses CompressEntry: it decodes payload back to exactly
// rawLen bytes, failing with ErrCorrupt on any mismatch. The returned slice
// is freshly allocated; callers holding a destination buffer should prefer
// DecompressEntryInto.
func DecompressEntry(payload []byte, rawLen int) ([]byte, error) {
	out := make([]byte, rawLen)
	if err := DecompressEntryInto(out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressEntryInto decodes payload into exactly len(dst) bytes — the
// zero-copy read path's counterpart to DecompressEntry. It succeeds only when
// payload is one whole block that produces len(dst) bytes, fails with an
// ErrCorrupt-wrapped error otherwise, and allocates nothing either way.
func DecompressEntryInto(dst, payload []byte) error {
	return decompressBlock(dst, payload)
}

// EntryClassFor returns the slab size class for an entry payload of n bytes
// under granularity g: the granularity's class when the payload fits within
// a page, the exact byte length above that (entries, unlike pages, may be
// arbitrarily large), and never below the smallest class.
func (g Granularity) EntryClassFor(n int) int {
	if n > g[len(g)-1] {
		return n
	}
	return g.ClassFor(n)
}

// ZbudStoredSize models Zswap's zbud allocator: at most two compressed pages
// share one physical page, so a compressed payload costs half a page when it
// fits in 2 KB and a whole page otherwise.
func ZbudStoredSize(compressedLen int) int {
	if compressedLen <= PageSize/2 {
		return PageSize / 2
	}
	return PageSize
}

// Ratio returns rawBytes/storedBytes, the aggregate compression ratio
// reported in Figure 3. It returns zero when storedBytes is zero.
func Ratio(rawBytes, storedBytes int64) float64 {
	if storedBytes == 0 {
		return 0
	}
	return float64(rawBytes) / float64(storedBytes)
}

// Model predicts stored size classes from a known per-page compressibility
// without running the codec, for simulation-scale workloads.
type Model struct {
	gran Granularity
}

// NewModel returns a model codec over granularity g.
func NewModel(g Granularity) (*Model, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Model{gran: g}, nil
}

// StoredSize returns the class a page with the given compressibility ratio
// occupies (ratio r means the page compresses to PageSize/r bytes). Ratios at
// or below 1 store raw.
func (m *Model) StoredSize(ratio float64) int {
	if ratio <= 1 {
		return PageSize
	}
	return m.gran.ClassFor(int(float64(PageSize) / ratio))
}

// GeneratePage fills a fresh PageSize page whose compressed size is
// approximately PageSize/ratio: a prefix of random bytes, then zeros. Ratio 1
// produces an incompressible page of pure random bytes. The same rng state
// always yields the same page, and the bytes are pinned by a hash test: the
// pages are the benchmark's and Figure 3's input, so they must not change
// when the codec does.
func GeneratePage(rng *rand.Rand, ratio float64) []byte {
	if ratio < 1 {
		ratio = 1
	}
	page := make([]byte, PageSize)
	// How much of the page is random (incompressible). The two constants were
	// fitted to deflate, the codec this package used first — random data
	// stored at slightly over 1:1 plus ~40 bytes of block framing, a zero run
	// at ~0 — and are kept for input stability. The LZ block codec stores the
	// random prefix at 1:1 plus ~30 bytes, so it lands a little under
	// PageSize/ratio, in the same size class.
	target := float64(PageSize) / ratio
	nRandom := int((target - 40) / 1.05)
	if nRandom < 0 {
		nRandom = 0
	}
	if nRandom > PageSize {
		nRandom = PageSize
	}
	// The random bytes are drawn chunk by chunk from the front of the page;
	// the loop's shape fixes how many rng draws a page costs, so it stays.
	const chunk = 64
	written := 0
	for i := 0; i < PageSize; i += chunk {
		end := i + chunk
		if end > PageSize {
			end = PageSize
		}
		if written < nRandom {
			n := end - i
			if written+n > nRandom {
				n = nRandom - written
			}
			for j := 0; j < n; j++ {
				page[i+j] = byte(rng.Intn(256))
			}
			written += n
		}
	}
	return page
}
