package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadFrameHostileLength: a length prefix is a claim, not a delivery.
// Ten bytes behind a 1 GiB prefix must cost the reader what arrived, not what
// was announced (the parent allocated the gigabyte before reading a byte).
func TestReadFrameHostileLength(t *testing.T) {
	wire := binary.AppendUvarint(nil, maxFrameSize)
	wire = append(wire, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(wire)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated frame was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("reading 10 bytes behind a 1 GiB prefix allocated %d bytes, want < 1 MiB", got)
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(binary.AppendUvarint(nil, maxFrameSize+1)))); err == nil {
		t.Error("a frame above maxFrameSize was accepted")
	}
}

// TestReadFrameInSteps: a frame longer than readStep arrives whole.
func TestReadFrameInSteps(t *testing.T) {
	body := make([]byte, 3*readStep+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	env := Envelope{From: 3, Kind: 9, Body: body}
	wire := append(appendFrameHeader(nil, env), body...)
	got, err := readFrame(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil || got.From != 3 || got.Kind != 9 || !bytes.Equal(got.Body, body) {
		t.Fatalf("readFrame = from %d kind %d, %d body bytes, err %v", got.From, got.Kind, len(got.Body), err)
	}
}

// TestConnectionHoldsNoSentFrame: a connection keeps nothing of a frame it
// has sent (the parent kept its largest frame, as the append buffer, for
// life). One 8 MiB frame, then a ping: with both received and dropped, the
// live heap is back where it was.
func TestConnectionHoldsNoSentFrame(t *testing.T) {
	nw, err := NewTCPNetwork([]NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nw)
	ping := func() {
		t.Helper()
		if err := nw[0].Send(1, Envelope{Kind: 1}); err != nil {
			t.Fatal(err)
		}
		recvOne(t, nw[1])
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	ping() // dial, accept, read loop: everything a connection does hold
	before := live()
	if err := nw[0].Send(1, Envelope{Kind: 2, Body: make([]byte, 8<<20)}); err != nil {
		t.Fatal(err)
	}
	if n := len(recvOne(t, nw[1]).Body); n != 8<<20 {
		t.Fatalf("received %d bytes, want 8 MiB", n)
	}
	ping()
	if grown := live() - before; grown >= 128<<10 {
		t.Errorf("%d bytes still live after an 8 MiB frame was sent and dropped, want < 128 KiB", grown)
	}
}
