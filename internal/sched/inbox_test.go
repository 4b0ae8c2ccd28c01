package sched

import (
	"runtime"
	"testing"

	"fractal/internal/rpc"
)

// scriptedMaster is a master transport whose receive channel the test fills.
type scriptedMaster struct {
	rpc.Transport
	recv chan rpc.Envelope
}

func (s scriptedMaster) Recv() <-chan rpc.Envelope { return s.recv }

// TestInboxDropsPastCap: with nobody reading the inbox, the router queues
// rpc.MailboxCap step-protocol messages in order and drops the next one.
func TestInboxDropsPastCap(t *testing.T) {
	master := scriptedMaster{recv: make(chan rpc.Envelope, rpc.MailboxCap+1)}
	for i := 0; i <= rpc.MailboxCap; i++ {
		master.recv <- rpc.Envelope{Kind: kStatusReport, Body: encode(statusReportMsg{attemptKey: attemptKey{Job: i}})}
	}
	close(master.recv)
	rt := &Runtime{master: master, inbox: rpc.NewMailbox(rpc.DropWhenFull)}
	rt.routerWg.Add(1)
	rt.router() // returns at the end of the scripted traffic, closing the inbox
	n := 0
	for env := range rt.inbox.Recv() {
		var m statusReportMsg
		if err := decode(env.Body, &m); err != nil || m.Job != n {
			t.Fatalf("inbox message %d is job %d (%v)", n, m.Job, err)
		}
		n++
	}
	if n != rpc.MailboxCap {
		t.Fatalf("the inbox delivered %d messages, want %d and the next dropped", n, rpc.MailboxCap)
	}
}

// TestIdleMailboxesAreSmall: an in-process runtime of one worker — two
// loopback mailboxes and the inbox — plus a spare two-node loopback network
// allocate less than 16 KiB between them. Mailboxes that preallocated their
// cap took 160 KiB each.
func TestIdleMailboxesAreSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw := rpc.NewLoopbackNetwork([]rpc.NodeID{rpc.Master, 0})
	rt, err := New(Config{Workers: 1, CoresPerWorker: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	for _, tr := range nw {
		tr.Close()
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Errorf("an idle runtime and loopback network allocated %d bytes, want less than %d", got, 16<<10)
	} else {
		t.Logf("an idle runtime and loopback network allocated %d bytes", got)
	}
}
