package rpc

import (
	"testing"
	"time"
)

func TestStatsBothTransports(t *testing.T) {
	for name, mk := range networks(t) {
		t.Run(name, func(t *testing.T) {
			nw := mk([]NodeID{Master, 0})
			defer closeAll(nw)

			if err := nw[Master].Send(0, Envelope{Kind: 1, Body: []byte("hello")}); err != nil {
				t.Fatal(err)
			}
			recvOne(t, nw[0])
			if err := nw[0].Send(Master, Envelope{Kind: 2, Body: []byte("ok!")}); err != nil {
				t.Fatal(err)
			}
			recvOne(t, nw[Master])

			// A TCP read loop counts a message just after it delivers it:
			// wait until both nodes have counted what they received.
			var m, w Stats
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				m, w = nw[Master].Stats(), nw[0].Stats()
				if m.MsgsRecv == 1 && w.MsgsRecv == 1 || time.Now().After(deadline) {
					break
				}
			}
			if m.MsgsSent != 1 || m.BytesSent != 5 {
				t.Errorf("master sent %d msgs / %d bytes, want 1/5", m.MsgsSent, m.BytesSent)
			}
			if m.MsgsRecv != 1 || m.BytesRecv != 3 {
				t.Errorf("master recv %d msgs / %d bytes, want 1/3", m.MsgsRecv, m.BytesRecv)
			}
			// The worker's view mirrors the master's.
			if w.MsgsSent != m.MsgsRecv || w.BytesSent != m.BytesRecv ||
				w.MsgsRecv != m.MsgsSent || w.BytesRecv != m.BytesSent {
				t.Errorf("worker stats %+v do not mirror master stats %+v", w, m)
			}
		})
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{MsgsSent: 10, MsgsRecv: 8, BytesSent: 1000, BytesRecv: 800}
	b := Stats{MsgsSent: 4, MsgsRecv: 3, BytesSent: 400, BytesRecv: 300}
	d := a.Sub(b)
	if d.MsgsSent != 6 || d.MsgsRecv != 5 || d.BytesSent != 600 || d.BytesRecv != 500 {
		t.Errorf("Sub got %+v", d)
	}
	s := d.Add(b)
	if s != a {
		t.Errorf("Add(Sub) got %+v, want %+v", s, a)
	}
}
