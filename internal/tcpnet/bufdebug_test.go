//go:build bufdebug

package tcpnet

import (
	"bytes"
	"context"
	"testing"
	"time"

	"godm/internal/transport"
)

// TestHandlerPayloadIsPoisonedAfterTheCall shows the contract's other side
// with the pool's debug build: a handler that keeps its payload slice past
// its return holds a released buffer, which reads as poison once the call
// has been answered.
func TestHandlerPayloadIsPoisonedAfterTheCall(t *testing.T) {
	if raceEnabled {
		t.Skip("reads a released buffer on purpose, which the race detector rightly reports")
	}
	a, peer := benchPair(t)
	var kept []byte
	peer.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		kept = payload // the bug under demonstration
		return []byte("ok"), nil
	})
	msg := bytes.Repeat([]byte{0x11}, 8000)
	if _, err := a.Call(context.Background(), 2, msg); err != nil {
		t.Fatal(err)
	}
	// The answer can reach us a moment before the serving side's flush
	// returns and releases the request buffer.
	deadline := time.Now().Add(2 * time.Second)
	for kept[0] == 0x11 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bytes.Equal(kept, msg) {
		t.Fatal("the payload a handler kept still reads as sent: call payloads are not pooled, or never released")
	}
}
