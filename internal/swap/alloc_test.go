package swap

import (
	"context"
	"testing"
	"time"

	"godm/internal/des"
	"godm/internal/wire/wiretest"
)

// TestResidentTouchAllocatesNothing: a hit is an indexed load of the page's
// record, a relink of the LRU through it and a charged sleep — nothing on the
// heap, under the benchmark's own configuration (detector recording every
// access, ladder on).
func TestResidentTouchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	r := newRig(t, 8<<20, 8<<20)
	const pages = 256
	m, err := NewManager(Tiered(pages/2, 0, pages, func(int) float64 { return 0.5 }), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.env.Go("driver", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		for pg := 0; pg < pages; pg++ {
			if err := m.Touch(ctx, pg, time.Microsecond, true); err != nil {
				t.Errorf("Touch(%d): %v", pg, err)
				return
			}
		}
		hot := pages - 1 // touched last, so resident
		hits := m.Stats().Hits
		allocs := testing.AllocsPerRun(200, func() {
			if err := m.Touch(ctx, hot, time.Microsecond, true); err != nil {
				t.Errorf("Touch: %v", err)
			}
		})
		if m.Stats().Hits-hits < 200 {
			t.Errorf("the measured touches were not hits: %+v", m.Stats())
		}
		if allocs > 0 {
			t.Errorf("a resident-page Touch allocates %.1f objects, want 0", allocs)
		}
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchAdmissionAllocatesNothing: admitting a page read ahead of demand
// and dropping a clean victim for it are flag and link writes in the two
// records — no list element, no boxed page number, no map cell.
func TestPrefetchAdmissionAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	r := newRig(t, 8<<20, 8<<20)
	const pages = 256
	m, err := NewManager(Tiered(pages/2, 0, pages, func(int) float64 { return 0.5 }), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.env.Go("driver", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		// Every page goes out dirty, and a resident set's worth comes back
		// clean.
		for pg := 0; pg < pages; pg++ {
			if pg == pages/2 {
				m.EvictAll(ctx)
			}
			if err := m.Touch(ctx, pg%(pages/2), time.Microsecond, pg < pages/2); err != nil {
				t.Errorf("Touch(%d): %v", pg, err)
				return
			}
		}
		before := m.Stats()
		next := m.evictBack() // parked and not resident: what a prefetch admits
		allocs := testing.AllocsPerRun(200, func() {
			if !m.admitPrefetched(next) {
				t.Errorf("page %d was resident", next)
			}
			next = m.evictBack()
		})
		st := m.Stats()
		if st.Prefetched-before.Prefetched < 200 || st.CleanDrops-before.CleanDrops < 200 || st.SwapOuts != before.SwapOuts {
			t.Errorf("the measured evictions were not clean drops: before %+v, after %+v", before, st)
		}
		if allocs > 0 {
			t.Errorf("a prefetch admission and a clean eviction allocate %.1f objects, want 0", allocs)
		}
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultReadsIntoScratch: a fault that reads a parked batch back from
// remote memory allocates its bookkeeping (the slot list) and
// nothing the size of what it read — the payload lands in the manager's
// scratch. One slot is a ranged read of a page, several are the whole entry.
func TestFaultReadsIntoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, readahead := range []int{1, 4} {
		r := newRig(t, 1<<20, 16<<20)
		const pages, resident, window = 256, 64, 4
		m, err := NewManager(Config{
			Name:          "remote-only",
			ResidentPages: resident,
			Window:        window,
			NodeRatio:     0,
			RemoteEnabled: true,
			Readahead:     readahead,
		}, r.deps)
		if err != nil {
			t.Fatal(err)
		}
		r.env.Go("driver", func(p *des.Proc) {
			ctx := des.NewContext(context.Background(), p)
			scan := func(write bool) {
				for pg := 0; pg < pages; pg++ {
					if err := m.Touch(ctx, pg, time.Microsecond, write); err != nil {
						t.Errorf("Touch(%d): %v", pg, err)
						return
					}
				}
			}
			scan(true)  // every page goes out dirty
			scan(false) // and comes back clean, sizing the scratch
			// AllocBytes may run the scan up to three times; every run is the
			// same steady-state scan, so the last one's counts stand for each.
			var faults, read, written int64
			bytes := wiretest.AllocBytes(func() {
				before := m.Stats()
				scan(false)
				st := m.Stats()
				faults, read, written = st.Faults-before.Faults, st.RemoteIns-before.RemoteIns, st.SwapOuts-before.SwapOuts
			})
			if faults == 0 || read != faults*int64(readahead) || written != 0 {
				t.Errorf("readahead %d: the measured scan should only read from remote: %d faults, %d pages read, %d written",
					readahead, faults, read, written)
				return
			}
			if per := bytes / uint64(faults); per > 512 {
				t.Errorf("readahead %d: a fault reading %d bytes allocates %d B, want <= 512",
					readahead, readahead*PageSize, per)
			}
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
