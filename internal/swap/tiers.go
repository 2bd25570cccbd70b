package swap

import (
	"context"
	"fmt"
	"time"

	"godm/internal/des"
	"godm/internal/pagetable"
	"godm/internal/trace"
)

// tier is where a batch is parked. This file holds the tiers, the one read
// (readSlots) and the one write (park) that charge their I/O, and the
// adaptive ladder that moves batches between the pool tiers.
type tier int

const (
	tierShared tier = iota + 1
	tierRemote
	tierSSD
	tierDisk
	// tierRemoteZ is remote memory holding a deflated copy of a batch that
	// was written uncompressed — the bottom rung of the adaptive ladder. It
	// is appended after the historical tiers so trace annotations of the
	// original four keep their numeric values.
	tierRemoteZ
	tierCount
)

// tierNames label the tiers in metrics families and dmctl top.
var tierNames = [tierCount]string{
	tierShared:  "shared",
	tierRemote:  "remote",
	tierSSD:     "ssd",
	tierDisk:    "disk",
	tierRemoteZ: "remote_deflated",
}

// ladderDown and ladderUp are the adaptive-tiering ladder: local shared
// memory ↔ remote uncompressed ↔ remote deflated; the zero tier means no
// edge. SSD and disk stay outside it. They are static overflow tiers: a batch
// lands there only when the pools are full, and idleness alone never sinks
// one there — remote memory exists to keep paging off the disk.
var (
	ladderDown = [tierCount]tier{tierShared: tierRemote, tierRemote: tierRemoteZ}
	ladderUp   = [tierCount]tier{tierRemoteZ: tierRemote, tierRemote: tierShared}
)

// TierOccupancy reports live parked pages per tier, keyed by tier name
// ("shared", "remote", "remote_deflated", "ssd", "disk").
func (m *Manager) TierOccupancy() map[string]int64 {
	out := make(map[string]int64, int(tierCount))
	for t := tierShared; t < tierCount; t++ {
		out[tierNames[t]] = m.tierPop[t]
	}
	return out
}

// ParkedPages is the number of live parked page copies across all tiers.
func (m *Manager) ParkedPages() int64 {
	var n int64
	for t := tierShared; t < tierCount; t++ {
		n += m.tierPop[t]
	}
	return n
}

// compressedOn reports whether tier t holds pages at their compressed class
// size: every tier under Config.Compression, the deflated rung regardless.
func (m *Manager) compressedOn(t tier) bool {
	return m.cfg.Compression || t == tierRemoteZ
}

// park stores batch b's payload on tier t, charging the transfer, and
// reports whether it landed: a pool refuses when it has no room, SSD and
// disk always accept. It is the only per-tier write — window flushes and
// ladder moves both come through here — and it parks from one manager-owned
// zero buffer, which neither pool retains.
func (m *Manager) park(ctx context.Context, p *des.Proc, b *batchInfo, t tier) bool {
	if len(m.zeros) < b.total {
		m.zeros = make([]byte, roundClass(b.total))
	}
	id, payload, class := pagetable.EntryID(b.id), m.zeros[:b.total], roundClass(b.total)
	pages := int64(len(b.slots))
	raw := int(pages) * PageSize
	switch t {
	case tierShared:
		if err := m.deps.VS.PutShared(id, payload, class, raw); err != nil {
			return false
		}
		m.deps.Shared.Move(p, int64(b.total))
		m.stats.SharedOuts += pages
	case tierRemote, tierRemoteZ:
		p.Sleep(m.cfg.RemoteOverhead + m.splitCost(b.total))
		if err := m.deps.VS.PutRemote(ctx, id, payload, class, raw); err != nil {
			return false
		}
		m.stats.RemoteOuts += pages
	case tierSSD:
		// XMemPod's flash tier: cheaper than the spinning device, capacity
		// assumed ample (flash swap partitions dwarf DRAM).
		m.deps.SSD.Transfer(p, int64(b.total))
		m.stats.SSDOuts += pages
	case tierDisk:
		b.diskOff = m.diskNext
		m.diskNext += int64(b.total)
		m.deps.Disk.Transfer(p, b.diskOff, int64(b.total))
		m.stats.DiskOuts += pages
	}
	b.where = t
	m.stats.BytesOut += int64(b.total)
	m.stats.RawOut += int64(raw)
	return true
}

// overflowTier is what stands behind the pools: flash when configured, else
// the swap disk — the unconditional last resort (the OS swap device).
func (m *Manager) overflowTier() tier {
	if m.cfg.SSDEnabled {
		return tierSSD
	}
	return tierDisk
}

// tierOrder is the order a window flush tries the tiers in. It applies the
// node:cluster distribution ratio of §V.A — NodeRatio tenths of the swap-out
// traffic try the shared pool first, the rest goes to remote memory — and
// ends with the overflow tier, which never refuses.
func (m *Manager) tierOrder() []tier {
	sharedOK := m.cfg.NodeRatio > 0
	remoteOK := m.cfg.RemoteEnabled
	last := m.overflowTier()
	if !sharedOK && !remoteOK {
		return []tier{last}
	}
	if !remoteOK {
		return []tier{tierShared, last}
	}
	if !sharedOK {
		return []tier{tierRemote, last}
	}
	m.counter++
	if int((m.counter-1)%10) < m.cfg.NodeRatio {
		return []tier{tierShared, tierRemote, last}
	}
	return []tier{tierRemote, tierShared, last}
}

// readSlots charges reading the given live slots of batch b from whatever
// tier holds it: the device or fabric transfer plus, where the tier stores
// pages compressed, the inflate CPU. It is the only per-tier read — demand
// faults, PBS read-ahead, Leap prefetch, the proactive pump and ladder moves
// all come through here. A pool read is one request for the span the slots
// cover; on disk slots[0] takes the seek and the rest stream.
func (m *Manager) readSlots(ctx context.Context, p *des.Proc, b *batchInfo, slots []int) error {
	var bytes int
	for _, s := range slots {
		bytes += b.slots[s].size
	}
	n := int64(len(slots))
	switch b.where {
	case tierShared:
		if err := m.poolRead(ctx, b, slots); err != nil {
			return err
		}
		m.deps.Shared.Move(p, int64(bytes))
		m.stats.SharedIns += n
	case tierRemote, tierRemoteZ:
		p.Sleep(m.cfg.RemoteOverhead + m.splitCost(bytes))
		if err := m.poolRead(ctx, b, slots); err != nil {
			return err
		}
		m.stats.RemoteIns += n
	case tierSSD:
		m.deps.SSD.Transfer(p, int64(bytes))
		m.stats.SSDIns += n
	case tierDisk:
		m.deps.Disk.Transfer(p, b.diskOff+int64(b.slots[slots[0]].off), int64(bytes))
		m.stats.DiskIns += n
	default:
		return fmt.Errorf("%w: batch %d in unknown tier", ErrNoBacking, b.id)
	}
	if m.compressedOn(b.where) {
		p.Sleep(time.Duration(n) * m.cfg.DecompressCPU)
	}
	m.stats.BytesIn += int64(bytes)
	return nil
}

// poolRead fetches slots of b's entry from the shared or remote pool as one
// ranged read of the span they cover — from the first byte of the lowest to
// the last byte of the highest, never the slots outside it or the class
// padding behind them. The bytes land in one manager-owned buffer, park's
// zeros seen from the other side: the engine charges the transfer and never
// looks at what it moved.
func (m *Manager) poolRead(ctx context.Context, b *batchInfo, slots []int) error {
	lo, hi := b.total, 0
	for _, s := range slots {
		sl := b.slots[s]
		lo, hi = min(lo, sl.off), max(hi, sl.off+sl.size)
	}
	if len(m.scratch) < hi-lo {
		m.scratch = make([]byte, roundClass(b.total)) // the entry's class: it holds any span of it
	}
	if err := m.deps.VS.GetAtInto(ctx, pagetable.EntryID(b.id), lo, m.scratch[:hi-lo]); err != nil {
		return fmt.Errorf("swap: %s read of %d slots: %w", tierNames[b.where], len(slots), err)
	}
	return nil
}

// maybeSweep runs the demotion sweep every demoteEvery faults: batches idle
// longer than demoteAfter move one rung down the ladder, oldest batch ids
// first (the live ring's order), at most demotePerSweep per sweep. The fault
// counter is the idle clock — wall time would break DES determinism, and
// fault pressure is what makes local space precious.
func (m *Manager) maybeSweep(ctx context.Context, p *des.Proc) {
	if !m.cfg.Tiering {
		return
	}
	m.sweepTick++
	if m.sweepTick < demoteEvery {
		return
	}
	m.sweepTick = 0
	moved := 0
	for b := m.live.newer; b != &m.live && moved < demotePerSweep; b = b.newer {
		if m.rungBelow(b) != 0 && m.stats.Faults-b.lastUse >= demoteAfter {
			m.demote(ctx, p, b)
			moved++
		}
	}
}

// rungBelow is b's demotion target, zero when it has none. A batch that is
// already compressed (Config.Compression) skips the deflated rung — deflating
// twice buys nothing.
func (m *Manager) rungBelow(b *batchInfo) tier {
	to := ladderDown[b.where]
	if to == tierRemoteZ && m.cfg.Compression {
		return 0
	}
	return to
}

// demote moves a cold batch one rung down the ladder.
func (m *Manager) demote(ctx context.Context, p *des.Proc, b *batchInfo) {
	ctx, sp := trace.Start(ctx, "swap.demote")
	sp.AnnotateInt("batch", int(b.id))
	sp.AnnotateInt("from", int(b.where))
	pages := b.liveCount
	if m.relocate(ctx, p, b, m.rungBelow(b)) {
		m.stats.Demotions += int64(pages)
		m.met.demotions.Add(int64(pages))
		// A fresh rung restarts the idle clock, so the batch descends one
		// rung per demoteAfter of further cold time instead of free-falling.
		b.lastUse = m.stats.Faults
	}
	sp.AnnotateInt("to", int(b.where))
	sp.End()
}

// promote climbs a hot batch one rung back up the ladder.
func (m *Manager) promote(ctx context.Context, p *des.Proc, b *batchInfo) {
	to := ladderUp[b.where]
	if to == 0 {
		return
	}
	ctx, sp := trace.Start(ctx, "swap.promote")
	sp.AnnotateInt("batch", int(b.id))
	sp.AnnotateInt("from", int(b.where))
	pages := b.liveCount
	if m.relocate(ctx, p, b, to) && b.where == to {
		m.stats.Promotions += int64(pages)
		m.met.promotions.Add(int64(pages))
	}
	sp.AnnotateInt("to", int(b.where))
	sp.End()
}

// relocate moves batch b from its pool rung onto rung `to` through memory:
// the live slots are read (inflating them off the deflated rung), deflated
// again when `to` stores compressed, re-laid without the dead slots' holes
// and parked under the same entry id, and every parked ref is re-pointed at
// its new slot. When the target pool has no room the payload falls through
// to the overflow tier, which always succeeds. Returns false only when the
// source read failed and the batch was left untouched.
func (m *Manager) relocate(ctx context.Context, p *des.Proc, b *batchInfo, to tier) bool {
	from := b.where
	// Scratch of its own: promote runs inside swapIn, whose slots are live.
	slots, pages := m.moveSlots[:0], m.movePages[:0]
	for s, sl := range b.slots {
		if sl.live {
			slots = append(slots, s)
			pages = append(pages, sl.page)
		}
	}
	m.moveSlots, m.movePages = slots, pages
	if err := m.readSlots(ctx, p, b, slots); err != nil {
		return false
	}
	if m.compressedOn(to) {
		p.Sleep(time.Duration(len(pages)) * m.cfg.CompressCPU)
	}
	// Drop the old copy, then park the new one; both share the entry id.
	_ = m.deps.VS.Delete(ctx, pagetable.EntryID(b.id))
	m.layout(b, pages, m.compressedOn(to))
	if !m.park(ctx, p, b, to) {
		m.park(ctx, p, b, m.overflowTier())
	}
	m.noteTier(from, -len(pages))
	m.noteTier(b.where, len(pages))
	for i, pg := range pages {
		m.pages[pg].ref = slotRef{b: b, slot: i}
	}
	return true
}

// noteTier moves the per-tier occupancy bookkeeping by delta pages.
func (m *Manager) noteTier(t tier, delta int) {
	m.tierPop[t] += int64(delta)
	m.met.tierPages[t].Add(int64(delta))
}

// splitCost is the extra time a transfer of n bytes pays when the fabric
// message size caps at MaxMessageBytes: one MessageOverhead per message
// beyond the first.
func (m *Manager) splitCost(n int) time.Duration {
	if m.cfg.MaxMessageBytes <= 0 || n <= m.cfg.MaxMessageBytes {
		return 0
	}
	extra := (n + m.cfg.MaxMessageBytes - 1) / m.cfg.MaxMessageBytes
	return time.Duration(extra-1) * m.cfg.MessageOverhead
}

// roundClass rounds a batch payload up to the next power of two of at least
// one page, bounding allocator fragmentation from odd compressed sizes.
func roundClass(n int) int {
	c := PageSize
	for c < n {
		c *= 2
	}
	return c
}
