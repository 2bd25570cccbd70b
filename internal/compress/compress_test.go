package compress

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGranularityValidate(t *testing.T) {
	tests := []struct {
		name    string
		g       Granularity
		wantErr bool
	}{
		{"two", Two, false},
		{"four", Four, false},
		{"empty", Granularity{}, true},
		{"not ascending", Granularity{1024, 512, 4096}, true},
		{"duplicate", Granularity{2048, 2048, 4096}, true},
		{"missing page class", Granularity{512, 1024}, true},
		{"negative", Granularity{-1, 4096}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.g.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestClassFor(t *testing.T) {
	tests := []struct {
		g    Granularity
		n    int
		want int
	}{
		{Four, 0, 512},
		{Four, 512, 512},
		{Four, 513, 1024},
		{Four, 1024, 1024},
		{Four, 2000, 2048},
		{Four, 4096, 4096},
		{Four, 9999, 4096},
		{Two, 100, 2048},
		{Two, 2049, 4096},
	}
	for _, tt := range tests {
		if got := tt.g.ClassFor(tt.n); got != tt.want {
			t.Errorf("ClassFor(%d) on %v = %d, want %d", tt.n, tt.g, got, tt.want)
		}
	}
}

func TestCodecRejectsBadGranularity(t *testing.T) {
	if _, err := NewCodec(Granularity{3, 5}); err == nil {
		t.Fatal("expected error for invalid granularity")
	}
}

func TestCompressRejectsWrongPageSize(t *testing.T) {
	c, err := NewCodec(Four)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compress(make([]byte, 100)); err == nil {
		t.Fatal("expected error for short page")
	}
}

func TestRoundTripZeroPage(t *testing.T) {
	c, _ := NewCodec(Four)
	page := make([]byte, PageSize)
	comp, err := c.Compress(page)
	if err != nil {
		t.Fatal(err)
	}
	if comp.StoredSize != 512 {
		t.Fatalf("zero page stored size = %d, want 512 (best class)", comp.StoredSize)
	}
	dst := make([]byte, PageSize)
	if err := c.Decompress(comp, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, dst) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripRandomPageStoredRaw(t *testing.T) {
	c, _ := NewCodec(Four)
	rng := rand.New(rand.NewSource(1))
	page := GeneratePage(rng, 1)
	comp, err := c.Compress(page)
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Raw || comp.StoredSize != PageSize {
		t.Fatalf("random page: raw=%v stored=%d, want raw 4096", comp.Raw, comp.StoredSize)
	}
	dst := make([]byte, PageSize)
	if err := c.Decompress(comp, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, dst) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	c, _ := NewCodec(Four)
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, ratioBits uint8) bool {
		ratio := 1 + float64(ratioBits)/32 // 1..~9
		pr := rand.New(rand.NewSource(seed))
		page := GeneratePage(pr, ratio)
		comp, err := c.Compress(page)
		if err != nil {
			return false
		}
		dst := make([]byte, PageSize)
		if err := c.Decompress(comp, dst); err != nil {
			return false
		}
		return bytes.Equal(page, dst)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStoredSizeMonotoneInCompressibility(t *testing.T) {
	c, _ := NewCodec(Four)
	rng := rand.New(rand.NewSource(7))
	prev := PageSize + 1
	for _, ratio := range []float64{1, 1.3, 2, 3, 4, 8} {
		// Average over several pages to smooth chunk-boundary noise.
		total := 0
		for i := 0; i < 8; i++ {
			comp, err := c.Compress(GeneratePage(rng, ratio))
			if err != nil {
				t.Fatal(err)
			}
			total += comp.StoredSize
		}
		avg := total / 8
		if avg > prev {
			t.Fatalf("avg stored size %d at ratio %v exceeds previous %d", avg, ratio, prev)
		}
		prev = avg
	}
}

func TestGeneratePageHitsTargetRatio(t *testing.T) {
	c, _ := NewCodec(Four)
	rng := rand.New(rand.NewSource(3))
	for _, ratio := range []float64{2, 4} {
		var raw, stored int64
		for i := 0; i < 32; i++ {
			comp, err := c.Compress(GeneratePage(rng, ratio))
			if err != nil {
				t.Fatal(err)
			}
			raw += PageSize
			stored += int64(comp.StoredSize)
		}
		got := Ratio(raw, stored)
		if got < ratio*0.5 || got > ratio*1.8 {
			t.Fatalf("target ratio %v achieved %v, outside tolerance", ratio, got)
		}
	}
}

func TestFourGranularityBeatsTwo(t *testing.T) {
	c4, _ := NewCodec(Four)
	c2, _ := NewCodec(Two)
	rng := rand.New(rand.NewSource(9))
	var raw, stored4, stored2 int64
	for i := 0; i < 64; i++ {
		page := GeneratePage(rng, 6) // compresses below 1 KB: only Four has a class there
		p4, err := c4.Compress(page)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := c2.Compress(page)
		if err != nil {
			t.Fatal(err)
		}
		raw += PageSize
		stored4 += int64(p4.StoredSize)
		stored2 += int64(p2.StoredSize)
	}
	if Ratio(raw, stored4) <= Ratio(raw, stored2) {
		t.Fatalf("4-granularity ratio %.2f not better than 2-granularity %.2f",
			Ratio(raw, stored4), Ratio(raw, stored2))
	}
}

func TestZbudStoredSize(t *testing.T) {
	tests := []struct{ in, want int }{
		{100, 2048},
		{2048, 2048},
		{2049, 4096},
		{4096, 4096},
	}
	for _, tt := range tests {
		if got := ZbudStoredSize(tt.in); got != tt.want {
			t.Errorf("ZbudStoredSize(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(8192, 2048); got != 4 {
		t.Fatalf("Ratio = %v, want 4", got)
	}
	if got := Ratio(100, 0); got != 0 {
		t.Fatalf("Ratio with zero stored = %v, want 0", got)
	}
}

func TestModelStoredSize(t *testing.T) {
	m, err := NewModel(Four)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		ratio float64
		want  int
	}{
		{0.5, 4096},
		{1, 4096},
		{1.5, 4096}, // 2731 bytes -> 4096 class
		{2, 2048},
		{4, 1024},
		{8, 512},
		{100, 512},
	}
	for _, tt := range tests {
		if got := m.StoredSize(tt.ratio); got != tt.want {
			t.Errorf("StoredSize(%v) = %d, want %d", tt.ratio, got, tt.want)
		}
	}
}

func TestModelMatchesCodecOnSyntheticPages(t *testing.T) {
	m, _ := NewModel(Four)
	c, _ := NewCodec(Four)
	rng := rand.New(rand.NewSource(11))
	for _, ratio := range []float64{2, 4, 8} {
		var codecStored, modelStored int64
		for i := 0; i < 32; i++ {
			comp, err := c.Compress(GeneratePage(rng, ratio))
			if err != nil {
				t.Fatal(err)
			}
			codecStored += int64(comp.StoredSize)
			modelStored += int64(m.StoredSize(ratio))
		}
		// The model should be within 2x of the real codec on synthetic pages.
		lo, hi := modelStored/2, modelStored*2
		if codecStored < lo || codecStored > hi {
			t.Fatalf("ratio %v: codec stored %d, model %d — outside 2x band", ratio, codecStored, modelStored)
		}
	}
}

func TestDecompressCorruptPayload(t *testing.T) {
	c, _ := NewCodec(Four)
	dst := make([]byte, PageSize)
	err := c.Decompress(Compressed{Data: []byte{1, 2, 3}, StoredSize: 512}, dst)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecompressRawWrongLength(t *testing.T) {
	c, _ := NewCodec(Four)
	dst := make([]byte, PageSize)
	err := c.Decompress(Compressed{Data: []byte{1}, StoredSize: PageSize, Raw: true}, dst)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecompressWrongDstSize(t *testing.T) {
	c, _ := NewCodec(Four)
	comp, _ := c.Compress(make([]byte, PageSize))
	if err := c.Decompress(comp, make([]byte, 10)); err == nil {
		t.Fatal("expected error for short dst")
	}
}

func BenchmarkCompressZeroPage(b *testing.B) {
	c, _ := NewCodec(Four)
	page := make([]byte, PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressHalfCompressible(b *testing.B) {
	c, _ := NewCodec(Four)
	page := GeneratePage(rand.New(rand.NewSource(1)), 2)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	c, _ := NewCodec(Four)
	comp, _ := c.Compress(GeneratePage(rand.New(rand.NewSource(1)), 2))
	dst := make([]byte, PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decompress(comp, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEntryRoundTrip(t *testing.T) {
	c, _ := NewCodec(Four)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 100, 512, 4096, 8192, 70000} {
		// Compressible payload: repeated runs.
		data := bytes.Repeat([]byte("disaggregate "), n/13+1)[:n]
		payload, ok := c.CompressEntry(data)
		if n >= 64 && !ok {
			t.Fatalf("len %d: repetitive entry did not compress", n)
		}
		if ok {
			if len(payload) >= n {
				t.Fatalf("len %d: payload %d not smaller", n, len(payload))
			}
			back, err := DecompressEntry(payload, n)
			if err != nil {
				t.Fatalf("len %d: %v", n, err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("len %d: round trip mismatch", n)
			}
		}
		// Incompressible payload must be refused rather than grown.
		rnd := make([]byte, n)
		rng.Read(rnd)
		if _, ok := c.CompressEntry(rnd); ok && n < 512 {
			t.Fatalf("len %d: random entry claimed compressible", n)
		}
	}
	if _, ok := c.CompressEntry(nil); ok {
		t.Fatal("empty entry claimed compressible")
	}
}

func TestDecompressEntryRejectsCorrupt(t *testing.T) {
	c, _ := NewCodec(Four)
	data := bytes.Repeat([]byte("x"), 4096)
	payload, ok := c.CompressEntry(data)
	if !ok {
		t.Fatal("setup: run of x did not compress")
	}
	if _, err := DecompressEntry(payload, len(data)+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong rawLen err = %v, want ErrCorrupt", err)
	}
	if _, err := DecompressEntry(payload[:len(payload)/2], len(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload err = %v, want ErrCorrupt", err)
	}
}

func TestEntryClassFor(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 512}, {512, 512}, {513, 1024}, {4096, 4096}, {4097, 4097}, {70000, 70000},
	}
	for _, tt := range tests {
		if got := Four.EntryClassFor(tt.n); got != tt.want {
			t.Errorf("EntryClassFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
	if got := Two.EntryClassFor(100); got != 2048 {
		t.Errorf("Two.EntryClassFor(100) = %d, want 2048", got)
	}
}

// TestDecompressZeroAlloc pins the decoder's allocation contract: page
// decompression and entry decompression into a caller buffer allocate
// nothing — the block decoder keeps no state and builds no tables.
func TestDecompressZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	c, err := NewCodec(Four)
	if err != nil {
		t.Fatal(err)
	}
	page := GeneratePage(rand.New(rand.NewSource(7)), 3.0)
	comp, err := c.Compress(page)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Raw {
		t.Fatal("expected a compressible page")
	}
	dst := make([]byte, PageSize)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.Decompress(comp, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Decompress allocates %.1f objects/op, want 0", allocs)
	}
	if !bytes.Equal(dst, page) {
		t.Fatal("round trip mismatch")
	}

	entry := bytes.Repeat([]byte("entry payload "), 100)
	payload, ok := c.CompressEntry(entry)
	if !ok {
		t.Fatal("expected compressible entry")
	}
	edst := make([]byte, len(entry))
	if allocs := testing.AllocsPerRun(100, func() {
		if err := DecompressEntryInto(edst, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecompressEntryInto allocates %.1f objects/op, want 0", allocs)
	}
	if !bytes.Equal(edst, entry) {
		t.Fatal("entry round trip mismatch")
	}
}

// BenchmarkCodecPageCompress is the data plane's shape: one ratio-2.0 page
// compressed into a caller's buffer. scripts/alloc_budget.sh holds it to
// zero allocations.
func BenchmarkCodecPageCompress(b *testing.B) {
	c, _ := NewCodec(Four)
	page := GeneratePage(rand.New(rand.NewSource(1)), 2)
	buf := make([]byte, 0, PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.AppendEntry(buf, page); !ok {
			b.Fatal("page did not compress")
		}
	}
}

// BenchmarkCodecPageDecompress is its read-side twin, also held to zero
// allocations.
func BenchmarkCodecPageDecompress(b *testing.B) {
	c, _ := NewCodec(Four)
	page := GeneratePage(rand.New(rand.NewSource(1)), 2)
	payload, ok := c.CompressEntry(page)
	if !ok {
		b.Fatal("page did not compress")
	}
	dst := make([]byte, PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecompressEntryInto(dst, payload); err != nil {
			b.Fatal(err)
		}
	}
}
