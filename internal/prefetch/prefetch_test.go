package prefetch

import (
	"fmt"
	"math/rand"
	"testing"
)

func mustNew(t *testing.T, addressSpace int) *Detector {
	t.Helper()
	d, err := New(addressSpace)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDetectorRequiresAddressSpace(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("want error for zero address space")
	}
}

func TestSequentialStride(t *testing.T) {
	d := mustNew(t, 1<<20)
	for pg := 0; pg < 64; pg++ {
		d.Record(pg)
	}
	got := d.Predict(63)
	if len(got) == 0 {
		t.Fatal("sequential scan produced no trend")
	}
	for i, pg := range got {
		if want := 64 + i; pg != want {
			t.Fatalf("prediction[%d] = %d, want %d", i, pg, want)
		}
	}
}

func TestNegativeStride(t *testing.T) {
	d := mustNew(t, 1<<20)
	for pg := 1000; pg > 900; pg -= 3 {
		d.Record(pg)
	}
	got := d.Predict(903)
	if len(got) == 0 {
		t.Fatal("reverse scan produced no trend")
	}
	for i, pg := range got {
		if want := 903 - 3*(i+1); pg != want {
			t.Fatalf("prediction[%d] = %d, want %d", i, pg, want)
		}
	}
}

// A strided scan with interleaved noise still yields the majority trend via
// the shrinking window: the most recent half of the history is pure stride.
func TestShrinkingWindowRecovers(t *testing.T) {
	d := mustNew(t, 1<<20)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i <= historySize; i++ { // noise fills the whole ring
		d.Record(rng.Intn(1 << 20))
	}
	base := 5000
	for i := 0; i < 9; i++ { // stride of 2 dominates the recent quarter
		d.Record(base + 2*i)
	}
	got := d.Predict(base + 16)
	if len(got) == 0 {
		t.Fatal("stride after noise produced no trend")
	}
	if got[0] != base+18 {
		t.Fatalf("first prediction %d, want %d", got[0], base+18)
	}
	if d.n != historySize {
		t.Fatalf("ring holds %d deltas, want it full at %d", d.n, historySize)
	}
}

func TestZeroDeltaIsNoTrend(t *testing.T) {
	d := mustNew(t, 1024)
	for i := 0; i < 32; i++ {
		d.Record(42)
	}
	if got := d.Predict(42); got != nil {
		t.Fatalf("repeated same-page accesses predicted %v, want none", got)
	}
	if d.Stats().NoTrend == 0 {
		t.Fatal("NoTrend counter not advanced")
	}
}

func TestAdversarialNoMajority(t *testing.T) {
	d := mustNew(t, 1<<20)
	// Cycle through four distinct deltas — no strict majority at any window.
	deltas := []int{3, 17, -5, 101}
	pg := 1 << 10
	for i := 0; i < 128; i++ {
		pg += deltas[i%len(deltas)]
		d.Record(pg)
	}
	if got := d.Predict(pg); got != nil {
		t.Fatalf("adversarial stride predicted %v, want none", got)
	}
}

func TestDepthAIMD(t *testing.T) {
	d := NewDepth(4, 64, 2)
	if d.Get() != 4 {
		t.Fatalf("init depth %d, want 4", d.Get())
	}
	d.Hit()
	d.Hit() // streak complete -> double
	if d.Get() != 8 {
		t.Fatalf("after hit streak depth %d, want 8", d.Get())
	}
	d.Waste()
	if d.Get() != 4 {
		t.Fatalf("after waste depth %d, want 4", d.Get())
	}
	for i := 0; i < 100; i++ {
		d.Hit()
	}
	if d.Get() != 64 {
		t.Fatalf("depth cap %d, want 64", d.Get())
	}
	for i := 0; i < 100; i++ {
		d.Waste()
	}
	if d.Get() != 1 {
		t.Fatalf("depth floor %d, want 1", d.Get())
	}
}

// Property: no prediction ever leaves the address space, for any random
// access stream, any depth state, any address-space size.
func TestPropertyPredictionsWithinBounds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		space := 1 + rng.Intn(1<<16)
		d := mustNew(t, space)
		for i := 0; i < 2000; i++ {
			pg := rng.Intn(space)
			if rng.Intn(3) == 0 {
				// Bias towards strides so trends actually form.
				pg = (d.last + 1 + rng.Intn(3)) % space
			}
			d.Record(pg)
			for _, pred := range d.Predict(pg) {
				if pred < 0 || pred >= space {
					t.Fatalf("seed %d: prediction %d outside [0,%d)", seed, pred, space)
				}
			}
			// Random feedback exercises every depth state.
			switch rng.Intn(3) {
			case 0:
				d.Hit()
			case 1:
				d.Waste()
			}
		}
	}
}

// Property: a fixed trace seed yields a byte-identical prediction transcript
// across runs — the detector has no hidden nondeterminism (map iteration,
// clocks), matching the repo's DES determinism contract.
func TestPropertyDeterministicTranscript(t *testing.T) {
	transcript := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		d := mustNew(t, 1<<14)
		out := ""
		for i := 0; i < 1000; i++ {
			pg := rng.Intn(1 << 14)
			if rng.Intn(2) == 0 {
				pg = (d.last + 2) % (1 << 14)
			}
			d.Record(pg)
			preds := d.Predict(pg)
			out += fmt.Sprintf("%d:%v;", pg, preds)
			if len(preds) > 0 && rng.Intn(2) == 0 {
				d.Hit()
			} else if rng.Intn(4) == 0 {
				d.Waste()
			}
		}
		out += fmt.Sprintf("stats=%+v depth=%d", d.Stats(), d.Depth())
		return out
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := transcript(seed), transcript(seed)
		if a != b {
			t.Fatalf("seed %d: transcript differs between runs", seed)
		}
	}
}

func BenchmarkPrefetchDetector(b *testing.B) {
	d, err := New(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pg := (i * 3) % (1 << 20)
		d.Record(pg)
		if preds := d.Predict(pg); len(preds) > 0 {
			d.Hit()
		}
	}
}
