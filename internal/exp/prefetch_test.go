package exp

import "testing"

// TestPrefetchAcceptance pins the experiment's headline claims: the trend
// prefetcher beats in-batch readahead on at least two of the three shapes,
// and on the adversarial-stride walk — where the only correct prediction is
// no prediction — it stays within 5% of prefetching disabled. The tier
// ladder on top of it finishes no later than Leap alone on every shape.
func TestPrefetchAcceptance(t *testing.T) {
	res, err := Prefetch(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Shapes), 3; got != want {
		t.Fatalf("shapes = %d, want %d", got, want)
	}

	leapWins := 0
	for _, sh := range res.Shapes {
		if sh.Leap.Faults < sh.PBS.Faults {
			leapWins++
		}
		t.Logf("%s: faults PBS=%d off=%d Leap=%d, completion PBS=%v off=%v Leap=%v",
			sh.Shape, sh.PBS.Faults, sh.Off.Faults, sh.Leap.Faults,
			sh.PBS.Completion, sh.Off.Completion, sh.Leap.Completion)
	}
	if leapWins < 2 {
		t.Errorf("Leap beat PBS on faults on %d shapes, want >= 2", leapWins)
	}

	for _, sh := range res.Shapes {
		switch sh.Shape {
		case "adversarial-stride":
			// Do-no-harm bound: within 5% of prefetching disabled, and far
			// fewer speculative fetches than PBS fires blindly.
			limit := sh.Off.Completion + sh.Off.Completion/20
			if sh.Leap.Completion > limit {
				t.Errorf("adversarial-stride: Leap completion %v > 105%% of prefetch-off %v",
					sh.Leap.Completion, sh.Off.Completion)
			}
			if sh.Leap.Prefetched*4 > sh.PBS.Prefetched {
				t.Errorf("adversarial-stride: Leap prefetched %d pages, want well under PBS's %d",
					sh.Leap.Prefetched, sh.PBS.Prefetched)
			}
		case "phase-changing", "scan-heavy":
			if sh.Leap.Prefetched == 0 {
				t.Errorf("%s: Leap issued no prefetches on a trending shape", sh.Shape)
			}
			if sh.Leap.Accuracy < 0.5 {
				t.Errorf("%s: Leap accuracy %.2f, want >= 0.5", sh.Shape, sh.Leap.Accuracy)
			}
		}
		// The ladder must actually move pages in both directions, and must
		// pay for itself: the same faults as Leap, served no slower.
		if sh.Tiered.Demotions == 0 || sh.Tiered.Promotions == 0 {
			t.Errorf("%s: tiered demotions=%d promotions=%d, want both > 0",
				sh.Shape, sh.Tiered.Demotions, sh.Tiered.Promotions)
		}
		if sh.Tiered.Faults != sh.Leap.Faults {
			t.Errorf("%s: tiered faults %d != Leap's %d on the same trace",
				sh.Shape, sh.Tiered.Faults, sh.Leap.Faults)
		}
		if sh.Tiered.Completion > sh.Leap.Completion {
			t.Errorf("%s: tiered completion %v > Leap's %v: the ladder costs more than it saves",
				sh.Shape, sh.Tiered.Completion, sh.Leap.Completion)
		}
	}
}

// TestPrefetchDeterministic pins replay determinism: two runs at the same
// scale produce identical measurements, fault counts and simulated clocks
// included.
func TestPrefetchDeterministic(t *testing.T) {
	a, err := Prefetch(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prefetch(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Shapes {
		if a.Shapes[i] != b.Shapes[i] {
			t.Errorf("shape %s differs across identical runs:\n  %+v\n  %+v",
				a.Shapes[i].Shape, a.Shapes[i], b.Shapes[i])
		}
	}
}
