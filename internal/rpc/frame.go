// The binary wire framing of the TCP transport, the outermost layer of the
// wire format (DESIGN.md §12). A frame is a fixed, versionless binary shape:
//
//	uvarint  frame length (bytes after this field)
//	varint   From (NodeID, zigzag — the master is -1)
//	byte     Kind
//	bytes    Body (the rest of the frame)
//
// Bodies are opaque here; the scheduling layer encodes them with its message
// codec (internal/sched/messages.go), which carries aggregation payloads
// (internal/agg) as byte fields.
package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// maxFrameSize bounds a frame read from the wire, so a corrupt or hostile
// length prefix cannot make the reader allocate unbounded memory. 1 GiB is
// far above any real payload (aggregation partials are the largest bodies).
const maxFrameSize = 1 << 30

// appendFrame appends env as one wire frame to dst.
func appendFrame(dst []byte, env Envelope) []byte {
	// Header: zigzag From + Kind byte. From is tiny (node IDs), so the
	// header is 2-11 bytes.
	var hdr [binary.MaxVarintLen64 + 1]byte
	n := binary.PutVarint(hdr[:], int64(env.From))
	hdr[n] = env.Kind
	n++
	dst = binary.AppendUvarint(dst, uint64(n+len(env.Body)))
	dst = append(dst, hdr[:n]...)
	return append(dst, env.Body...)
}

// readFrame reads one frame from r. The returned envelope's Body aliases a
// fresh allocation.
func readFrame(r *bufio.Reader) (Envelope, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return Envelope{}, err
	}
	if size < 2 || size > maxFrameSize {
		return Envelope{}, fmt.Errorf("rpc: bad frame size %d", size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, err
	}
	from, n := binary.Varint(buf)
	if n <= 0 || n >= len(buf) {
		return Envelope{}, fmt.Errorf("rpc: bad frame header")
	}
	env := Envelope{From: NodeID(from), Kind: buf[n]}
	if body := buf[n+1:]; len(body) > 0 {
		env.Body = body
	}
	return env, nil
}
