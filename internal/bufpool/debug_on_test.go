//go:build bufdebug

package bufpool

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(r.(string), want) {
			t.Fatalf("recovered %v, want a panic mentioning %q", r, want)
		}
	}()
	f()
}

// The three things the debug build exists to catch.

func TestDebugPoisonsOnPut(t *testing.T) {
	b := Get(6000)
	for i := range b {
		b[i] = 1
	}
	Put(b)
	for i, v := range b[:cap(b)] { // a read after release, on purpose
		if v != poison {
			t.Fatalf("byte %d of a released buffer reads %#x, want the poison", i, v)
		}
	}
}

func TestDebugPanicsOnDoubleRelease(t *testing.T) {
	b := Get(100)
	Put(b)
	mustPanic(t, "double release", func() { Put(b) })
}

func TestDebugPanicsOnWriteAfterRelease(t *testing.T) {
	// The pool may drop a released buffer (a GC, or at random under the race
	// detector), and a dropped buffer is never drawn again: tamper with
	// several until one comes back.
	caught := func() (hit bool) {
		defer func() {
			if r := recover(); r != nil {
				hit = strings.Contains(r.(string), "written after its release")
			}
		}()
		b := Get(3 * MinBuf) // a class no other test of this package uses
		Put(b)
		b[17] = 0 // a write after release, on purpose
		for i := 0; i < 8; i++ {
			_ = Get(3 * MinBuf) // drawn and kept: the tampered one is among the first
		}
		return false
	}
	for try := 0; try < 100; try++ {
		if caught() {
			return
		}
	}
	t.Fatal("no Get noticed a buffer written after its release")
}
