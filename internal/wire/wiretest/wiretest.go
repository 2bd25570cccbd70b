// Package wiretest holds what the codec tests of core, cluster and metrics
// share: the `name hex` capture file that pins the control plane's bytes and
// seeds the fuzz targets, and the allocation measure behind the "a decoder
// allocates in proportion to its input" property.
package wiretest

import (
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// Message is one line of a capture file.
type Message struct {
	Name  string
	Bytes []byte
}

// ReadGolden parses a capture file: one `name hex` line per message.
func ReadGolden(tb testing.TB, path string) []Message {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var msgs []Message
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, hexBytes, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(hexBytes)
		if err != nil {
			tb.Fatalf("%s: line %q: %v", path, name, err)
		}
		msgs = append(msgs, Message{name, b})
	}
	return msgs
}

// WriteGolden writes msgs as a capture file.
func WriteGolden(path string, msgs []Message) error {
	var sb strings.Builder
	for _, m := range msgs {
		fmt.Fprintf(&sb, "%s %x\n", m.Name, m.Bytes)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// AllocBytes reports the heap bytes one run of f allocates. It takes the
// least of up to three runs (a run that reads zero ends it), so an allocation
// some other goroutine happened to make during one of them is not charged to
// f.
func AllocBytes(f func()) uint64 {
	least := allocBytesOnce(f)
	for i := 0; i < 2 && least > 0; i++ {
		least = min(least, allocBytesOnce(f))
	}
	return least
}

func allocBytesOnce(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// CheckAllocBound fails tb when decode, run over an n-byte input, allocates
// more than 64n + 4 KiB: what a decoder builds is a small multiple of its
// wire form, never a function of a length prefix alone.
func CheckAllocBound(tb testing.TB, n int, decode func()) {
	tb.Helper()
	bound := 64*uint64(n) + 4<<10
	if allocBytesOnce(decode) <= bound {
		return
	}
	if got := AllocBytes(decode); got > bound {
		tb.Fatalf("decoding %d bytes allocated %d, bound %d", n, got, bound)
	}
}
