package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"godm/internal/bufpool"
	"godm/internal/transport"
)

// The sequential reference codec: what a frame is, written the obvious way.
// The endpoint itself never assembles a frame like this — it queues iovecs —
// so the tests hold its vectored path to these bytes.

const (
	minPoolBuf = bufpool.MinBuf
	maxPoolBuf = bufpool.MaxBuf
)

// writeRequest frames one request without flushing; the caller decides when
// the flush syscall happens (see Endpoint.send's coalescing).
func writeRequest(w *bufio.Writer, op byte, id uint64, from transport.NodeID, region transport.RegionID, offset int64, n int, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: payload %d exceeds %d", ErrFrameTooLarge, len(payload), maxPayload)
	}
	var hdr [reqHeaderSize]byte
	hdr[0] = op
	binary.BigEndian.PutUint64(hdr[1:9], id)
	binary.BigEndian.PutUint64(hdr[9:17], uint64(from))
	binary.BigEndian.PutUint32(hdr[17:21], uint32(region))
	binary.BigEndian.PutUint64(hdr[21:29], uint64(offset))
	binary.BigEndian.PutUint32(hdr[29:33], uint32(n))
	binary.BigEndian.PutUint32(hdr[33:37], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func writeResponse(w *bufio.Writer, id uint64, status byte, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: payload %d exceeds %d", ErrFrameTooLarge, len(payload), maxPayload)
	}
	var hdr [respHeaderSize]byte
	binary.BigEndian.PutUint64(hdr[0:8], id)
	hdr[8] = status
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readResponse(r *bufio.Reader) (id uint64, status byte, payload []byte, err error) {
	var hdr [respHeaderSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	id = binary.BigEndian.Uint64(hdr[0:8])
	status = hdr[8]
	payloadLen := binary.BigEndian.Uint32(hdr[9:13])
	if payloadLen > maxPayload {
		return 0, 0, nil, errors.New("tcpnet: oversized frame")
	}
	payload = make([]byte, payloadLen)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return id, status, payload, nil
}
