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

// TestDeadWriterReleasesItsPooledBuffers: the pooled buffers a served
// connection's responses depend on — an opRead's response, an opCall's
// request payload — go back to the pool when its writer dies, whether they
// were queued before the failed flush or offered after it. The pool's debug
// build poisons what it takes back.
func TestDeadWriterReleasesItsPooledBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("reads released buffers on purpose, which the race detector rightly reports")
	}
	w := newFrameWriter(&budgetConn{budget: respHeaderSize + 100})
	var hdr [respHeaderSize]byte
	queued := getBuf(4096)
	copy(queued, bytes.Repeat([]byte{0x11}, len(queued)))
	if err := w.queue(1, hdr[:], queued, nil, false, queued); err != nil {
		t.Fatal(err)
	}
	if err := w.flush(); err == nil {
		t.Fatal("flush succeeded against an exhausted budget")
	}
	if queued[0] == 0x11 {
		t.Error("a buffer queued before the failed flush was not released")
	}
	late := getBuf(8192)
	copy(late, bytes.Repeat([]byte{0x22}, len(late)))
	if err := w.queue(2, hdr[:], late, nil, true, late); err == nil {
		t.Fatal("a dead writer accepted a frame")
	}
	if late[0] == 0x22 {
		t.Error("a buffer offered to the dead writer was not released")
	}
}
