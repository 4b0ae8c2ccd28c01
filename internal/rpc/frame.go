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
	"slices"
)

// maxFrameSize bounds a frame read from the wire. Aggregation partials
// travel as bounded frames (agg.FrameLimit), but a job's environment still
// ships as one body per aggregation, so the bound stays far above any real
// payload and readFrame does not trust it: see readStep.
const maxFrameSize = 1 << 30

// readStep is how much of a frame readFrame allocates ahead of the bytes
// that have arrived. A frame up to this size is allocated once, at its size;
// a longer one grows as it is read, so a hostile length prefix costs its
// sender's bytes and not the receiver's memory.
const readStep = 256 << 10

// frameHeaderMax is the longest frame header: length, From, Kind.
const frameHeaderMax = 2*binary.MaxVarintLen64 + 1

// appendFrameHeader appends everything of env's wire frame but the body.
func appendFrameHeader(dst []byte, env Envelope) []byte {
	// From is tiny (node IDs), so this is 3-5 bytes in practice.
	var hdr [binary.MaxVarintLen64 + 1]byte
	n := binary.PutVarint(hdr[:], int64(env.From))
	hdr[n] = env.Kind
	n++
	dst = binary.AppendUvarint(dst, uint64(n+len(env.Body)))
	return append(dst, hdr[:n]...)
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
	buf := make([]byte, 0, min(int(size), readStep))
	for len(buf) < int(size) {
		n := min(int(size)-len(buf), readStep)
		buf = slices.Grow(buf, n)[:len(buf)+n]
		if _, err := io.ReadFull(r, buf[len(buf)-n:]); err != nil {
			return Envelope{}, err
		}
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
