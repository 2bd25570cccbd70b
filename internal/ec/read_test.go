package ec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"godm/internal/des"
)

// stripeFetcher serves ReadInto from an in-memory stripe, with per-shard
// fault and delay injection.
type stripeFetcher struct {
	shards  [][]byte
	fail    map[int]bool
	delay   map[int]time.Duration
	fetches atomic.Int64
}

func (f *stripeFetcher) fetch(ctx context.Context, idx int, dst []byte) error {
	f.fetches.Add(1)
	if d, ok := f.delay[idx]; ok {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if f.fail[idx] {
		return fmt.Errorf("shard %d: donor dead", idx)
	}
	copy(dst, f.shards[idx])
	return nil
}

func newStripeFetcher(t *testing.T, c *Code, data []byte) *stripeFetcher {
	t.Helper()
	return &stripeFetcher{
		shards: makeStripe(t, c, data),
		fail:   map[int]bool{},
		delay:  map[int]time.Duration{},
	}
}

func testPayload(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// bothPlans runs body under each plan a context selects: the concurrent one
// (a plain context) and the serial one, the way production gets it — as a
// simulated process, which is not the test's goroutine: body reports with
// t.Error and returns.
func bothPlans(t *testing.T, body func(t *testing.T, ctx context.Context)) {
	t.Run("concurrent", func(t *testing.T) { body(t, context.Background()) })
	t.Run("simulated", func(t *testing.T) {
		env := des.NewEnv()
		env.Go("test", func(p *des.Proc) { body(t, des.NewContext(context.Background(), p)) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReadIntoHealthy(t *testing.T) {
	bothPlans(t, func(t *testing.T, ctx context.Context) {
		for _, n := range []int{1, 5, 4096, 4097} {
			c, _ := New(4, 2)
			data := testPayload(n, int64(n))
			f := newStripeFetcher(t, c, data)
			dst := make([]byte, n)
			if err := c.ReadInto(ctx, dst, f.fetch, ReadOpts{}); err != nil {
				t.Errorf("n=%d: %v", n, err)
				return
			}
			if !bytes.Equal(dst, data) {
				t.Errorf("n=%d: payload differs", n)
				return
			}
		}
	})
}

func TestReadIntoDegraded(t *testing.T) {
	bothPlans(t, func(t *testing.T, ctx context.Context) {
		// Fail up to m donors in every combination of data/parity positions.
		for _, pattern := range erasurePatterns(6, 2) {
			c, _ := New(4, 2)
			data := testPayload(2000, 99)
			f := newStripeFetcher(t, c, data)
			for _, p := range pattern {
				f.fail[p] = true
			}
			degraded := false
			dst := make([]byte, len(data))
			err := c.ReadInto(ctx, dst, f.fetch, ReadOpts{
				OnDegraded: func() { degraded = true },
			})
			failedData := 0
			for _, p := range pattern {
				if p < 4 {
					failedData++
				}
			}
			if err != nil {
				t.Errorf("fail=%v: %v", pattern, err)
				return
			}
			if !bytes.Equal(dst, data) {
				t.Errorf("fail=%v: payload differs", pattern)
				return
			}
			if failedData > 0 && !degraded {
				t.Errorf("fail=%v: data-shard loss did not report degraded", pattern)
				return
			}
		}
	})
}

func TestReadIntoTooManyFailures(t *testing.T) {
	bothPlans(t, func(t *testing.T, ctx context.Context) {
		c, _ := New(4, 2)
		data := testPayload(1024, 5)
		f := newStripeFetcher(t, c, data)
		f.fail[0], f.fail[2], f.fail[4] = true, true, true // 3 losses > m=2
		dst := make([]byte, len(data))
		err := c.ReadInto(ctx, dst, f.fetch, ReadOpts{})
		if !errors.Is(err, ErrShortShards) {
			t.Errorf("err = %v, want ErrShortShards", err)
		}
	})
}

// TestReadIntoHedge: one data donor stalls far past the hedge timer; the
// read must complete from parity without waiting it out, and report both the
// hedge and the degraded reconstruction.
func TestReadIntoHedge(t *testing.T) {
	c, _ := New(4, 2)
	data := testPayload(8192, 11)
	f := newStripeFetcher(t, c, data)
	f.delay[1] = 30 * time.Second // stalled donor, cancelled on completion
	hedged, degraded := false, false
	dst := make([]byte, len(data))
	start := time.Now()
	err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{
		Hedge:      10 * time.Millisecond,
		OnHedge:    func() { hedged = true },
		OnDegraded: func() { degraded = true },
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("payload differs after hedged read")
	}
	if !hedged {
		t.Error("hedge timer did not fire")
	}
	if !degraded {
		t.Error("hedged read did not report degraded")
	}
	if elapsed > 5*time.Second {
		t.Errorf("hedged read took %v: waited for the stalled donor", elapsed)
	}
}

// TestReadIntoHedgeUnneeded: a hedge timer far above fetch latency never
// fires, and only the k data fetches are issued.
func TestReadIntoHedgeUnneeded(t *testing.T) {
	c, _ := New(4, 2)
	data := testPayload(4096, 13)
	f := newStripeFetcher(t, c, data)
	hedged := false
	dst := make([]byte, len(data))
	err := c.ReadInto(context.Background(), dst, f.fetch, ReadOpts{
		Hedge:   30 * time.Second,
		OnHedge: func() { hedged = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if hedged {
		t.Error("hedge fired although all donors were fast")
	}
	if got := f.fetches.Load(); got != 4 {
		t.Errorf("issued %d fetches, want 4 (k) on the healthy path", got)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("payload differs")
	}
}

// TestReadIntoContextCancelled: a cancelled context fails the read rather
// than hanging on donors that will never answer.
func TestReadIntoContextCancelled(t *testing.T) {
	c, _ := New(2, 1)
	data := testPayload(512, 17)
	f := newStripeFetcher(t, c, data)
	f.delay[0], f.delay[1], f.delay[2] = time.Minute, time.Minute, time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	dst := make([]byte, len(data))
	err := c.ReadInto(ctx, dst, f.fetch, ReadOpts{Hedge: 5 * time.Millisecond})
	if err == nil {
		t.Fatal("read with all donors stalled succeeded")
	}
}
