package pagetable

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// TestHolders: a location says who holds the entry the same way whether the
// set was recorded with WithHolders — whose slice comes back as it is, through
// the table too — or spelled out field by field.
func TestHolders(t *testing.T) {
	set := []NodeID{3, 4, 5}
	loc := Location{Tier: TierRemote}.WithHolders(set)
	if loc.Primary != 3 || !slices.Equal(loc.Replicas, []NodeID{4, 5}) {
		t.Errorf("WithHolders(%v) left primary %d, replicas %v", set, loc.Primary, loc.Replicas)
	}
	tab := New()
	tab.Put(1, loc)
	got, _ := tab.Get(1)
	if h := got.Holders(); &h[0] != &set[0] || len(h) != 3 {
		t.Errorf("Holders() = %v, want the recorded slice %v itself", h, set)
	}
	byHand := Location{Tier: TierRemote, Primary: 3, Replicas: []NodeID{4, 5}}
	if h := byHand.Holders(); !slices.Equal(h, set) {
		t.Errorf("Holders() of a hand-built location = %v, want %v", h, set)
	}
	if h := (Location{Tier: TierSharedMemory, Primary: 2}).Holders(); !slices.Equal(h, []NodeID{2}) {
		t.Errorf("Holders() of a local location = %v, want [2]", h)
	}
}

func TestPutGetDelete(t *testing.T) {
	tab := New()
	loc := Location{Tier: TierRemote, Primary: 3, Replicas: []NodeID{4, 5}, StoredSize: 2048, RawSize: 4096}
	tab.Put(7, loc)
	got, err := tab.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tier != TierRemote || got.Primary != 3 || len(got.Replicas) != 2 {
		t.Fatalf("Get = %+v", got)
	}
	if got, ok := tab.Lookup(7); !ok || got.Primary != 3 {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if !tab.Delete(7) {
		t.Fatal("Delete reported absent")
	}
	if _, err := tab.Get(7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got, ok := tab.Lookup(7); ok {
		t.Fatalf("Lookup of a deleted entry = %+v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { tab.Lookup(7) }); allocs != 0 {
		t.Fatalf("a Lookup miss allocates %.1f objects, want 0", allocs)
	}
	if tab.Delete(7) {
		t.Fatal("second Delete reported present")
	}
}

func TestTierString(t *testing.T) {
	tests := []struct {
		tier Tier
		want string
	}{
		{TierSharedMemory, "shared-memory"},
		{TierSendBuffer, "send-buffer"},
		{TierRemote, "remote"},
		{TierDisk, "disk"},
		{Tier(0), "tier(0)"},
	}
	for _, tt := range tests {
		if got := tt.tier.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.tier, got, tt.want)
		}
	}
}

func TestUpdateInsertModifyDelete(t *testing.T) {
	tab := New()
	// Insert via update.
	tab.Update(1, func(loc Location, ok bool) (Location, bool) {
		if ok {
			t.Fatal("entry should be absent")
		}
		return Location{Tier: TierSharedMemory}, true
	})
	// Modify.
	tab.Update(1, func(loc Location, ok bool) (Location, bool) {
		if !ok || loc.Tier != TierSharedMemory {
			t.Fatalf("ok=%v loc=%+v", ok, loc)
		}
		loc.Tier = TierDisk
		return loc, true
	})
	got, _ := tab.Get(1)
	if got.Tier != TierDisk {
		t.Fatalf("Tier = %v, want disk", got.Tier)
	}
	// Delete via update.
	tab.Update(1, func(loc Location, ok bool) (Location, bool) { return loc, false })
	if tab.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tab.Len())
	}
}

func TestLenAndForEach(t *testing.T) {
	tab := New()
	for i := EntryID(0); i < 1000; i++ {
		tab.Put(i, Location{Tier: TierSharedMemory})
	}
	if tab.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tab.Len())
	}
	seen := map[EntryID]bool{}
	tab.ForEach(func(id EntryID, _ Location) { seen[id] = true })
	if len(seen) != 1000 {
		t.Fatalf("ForEach visited %d, want 1000", len(seen))
	}
}

func TestCountByTier(t *testing.T) {
	tab := New()
	tab.Put(1, Location{Tier: TierSharedMemory})
	tab.Put(2, Location{Tier: TierSharedMemory})
	tab.Put(3, Location{Tier: TierRemote})
	tab.Put(4, Location{Tier: TierDisk})
	got := tab.CountByTier()
	if got[TierSharedMemory] != 2 || got[TierRemote] != 1 || got[TierDisk] != 1 {
		t.Fatalf("CountByTier = %v", got)
	}
}

func TestEntriesOnNode(t *testing.T) {
	tab := New()
	tab.Put(1, Location{Tier: TierRemote, Primary: 1, Replicas: []NodeID{2, 3}})
	tab.Put(2, Location{Tier: TierRemote, Primary: 2, Replicas: []NodeID{3, 4}})
	tab.Put(3, Location{Tier: TierSharedMemory, Primary: 2}) // not remote: excluded
	tab.Put(4, Location{Tier: TierRemote, Primary: 5})
	got := tab.EntriesOnNode(2)
	if len(got) != 2 {
		t.Fatalf("EntriesOnNode(2) = %v, want 2 entries", got)
	}
	if got := tab.EntriesOnNode(9); len(got) != 0 {
		t.Fatalf("EntriesOnNode(9) = %v, want empty", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	tab := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := EntryID(base*1000 + i)
				tab.Put(id, Location{Tier: TierSharedMemory})
				if _, err := tab.Get(id); err != nil {
					t.Errorf("Get(%d): %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000", tab.Len())
	}
}

// Property: a table behaves like a plain map under a random op sequence.
func TestTableMatchesModelProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tab := New()
		model := map[EntryID]Location{}
		for i, op := range ops {
			id := EntryID(op % 64)
			switch i % 3 {
			case 0:
				loc := Location{Tier: Tier(int(op)%4 + 1), RawSize: int(op)}
				tab.Put(id, loc)
				model[id] = loc
			case 1:
				got, err := tab.Get(id)
				want, ok := model[id]
				if ok != (err == nil) {
					return false
				}
				if ok && (got.Tier != want.Tier || got.RawSize != want.RawSize) {
					return false
				}
			case 2:
				if tab.Delete(id) != (func() bool { _, ok := model[id]; return ok })() {
					return false
				}
				delete(model, id)
			}
		}
		return tab.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMetadataBytesMatchesPaperEstimate(t *testing.T) {
	// Paper §IV.C: 4 KB entries, 8 B metadata — 2 TB cluster memory needs a
	// multi-GB table per node; 10 TB needs ~5x that.
	const tb = int64(1) << 40
	got2TB := MetadataBytes(2*tb, 4096)
	if got2TB != 4*(int64(1)<<30) {
		t.Fatalf("2TB metadata = %d, want 4 GiB", got2TB)
	}
	got10TB := MetadataBytes(10*tb, 4096)
	if got10TB != 5*got2TB {
		t.Fatalf("10TB metadata = %d, want 5x of %d", got10TB, got2TB)
	}
}

func TestMetadataBytesPanicsOnBadEntrySize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MetadataBytes(1, 0)
}

func TestGroupedMetadataBytesScalesDown(t *testing.T) {
	const tb = int64(1) << 40
	flat := MetadataBytes(10*tb, 4096)
	grouped := GroupedMetadataBytes(10*tb, 4096, 100, 10)
	if grouped*10 != flat {
		t.Fatalf("grouped = %d, want flat/10 = %d", grouped, flat/10)
	}
}

func TestGroupedMetadataBytesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for group larger than cluster")
		}
	}()
	GroupedMetadataBytes(1, 4096, 4, 8)
}

func TestGroupedTable(t *testing.T) {
	gt := NewGrouped()
	gt.Group(0).Put(1, Location{Tier: TierRemote})
	gt.Group(1).Put(1, Location{Tier: TierDisk})
	if gt.Groups() != 2 {
		t.Fatalf("Groups = %d, want 2", gt.Groups())
	}
	if gt.TotalLen() != 2 {
		t.Fatalf("TotalLen = %d, want 2", gt.TotalLen())
	}
	// Same group handle is returned on reuse.
	a, _ := gt.Group(0).Get(1)
	if a.Tier != TierRemote {
		t.Fatalf("group 0 entry tier = %v", a.Tier)
	}
}

func TestGroupedTableConcurrent(t *testing.T) {
	gt := NewGrouped()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				gt.Group(g%4).Put(EntryID(g*1000+i), Location{Tier: TierSharedMemory})
			}
		}(g)
	}
	wg.Wait()
	if gt.Groups() != 4 {
		t.Fatalf("Groups = %d, want 4", gt.Groups())
	}
	if gt.TotalLen() != 1600 {
		t.Fatalf("TotalLen = %d, want 1600", gt.TotalLen())
	}
}

func BenchmarkTablePut(b *testing.B) {
	tab := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Put(EntryID(i), Location{Tier: TierSharedMemory})
	}
}

func BenchmarkTableGet(b *testing.B) {
	tab := New()
	for i := 0; i < 1<<16; i++ {
		tab.Put(EntryID(i), Location{Tier: TierSharedMemory})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Get(EntryID(i & (1<<16 - 1))); err != nil {
			b.Fatal(err)
		}
	}
}
