package rpc

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// seq is a message carrying its sender and sequence number.
func seq(from NodeID, i int) Envelope {
	return Envelope{From: from, Body: binary.AppendUvarint(nil, uint64(i))}
}

func seqOf(t *testing.T, env Envelope) int {
	t.Helper()
	i, n := binary.Uvarint(env.Body)
	if n <= 0 {
		t.Fatalf("malformed body %v", env.Body)
	}
	return int(i)
}

// settle gives a goroutine that is about to block time to do so.
func settle() { time.Sleep(20 * time.Millisecond) }

// TestMailboxFIFOAcrossGrowth: a backlog that spills past the channel and
// grows its slice to the cap comes out in the order it went in, and the
// spill is released once it drains; with a reader running, several senders'
// messages each come out in their sender's order.
func TestMailboxFIFOAcrossGrowth(t *testing.T) {
	m := NewMailbox(BlockWhenFull)
	for i := 0; i < MailboxCap; i++ {
		if err := m.Put(seq(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	spilled := len(m.spill)
	m.mu.Unlock()
	if spilled != MailboxCap-mailboxBuffer {
		t.Fatalf("%d messages spilled, want %d", spilled, MailboxCap-mailboxBuffer)
	}
	for i := 0; i < MailboxCap; i++ {
		if got := seqOf(t, <-m.Recv()); got != i {
			t.Fatalf("message %d came out as %d", i, got)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; settle() {
		m.mu.Lock()
		drained := m.spill == nil && !m.pumping
		m.mu.Unlock()
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the pump did not release the drained spill")
		}
	}

	const senders, each = 4, 3 * MailboxCap
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := m.Put(seq(NodeID(s), i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	next := make([]int, senders)
	for n := 0; n < senders*each; n++ {
		env := <-m.Recv()
		if got := seqOf(t, env); got != next[env.From] {
			t.Fatalf("sender %d: message %d came out before %d", env.From, got, next[env.From])
		}
		next[env.From]++
		if n%1000 == 0 {
			runtime.Gosched() // let the backlog build and drain
		}
	}
	wg.Wait()
	m.Close()
	if _, ok := <-m.Recv(); ok {
		t.Fatal("a closed, drained mailbox delivered a message")
	}
}

// TestMailboxDropsAtCap: a DropWhenFull mailbox takes MailboxCap messages
// and refuses the next with ErrFull, and takes one again after a Recv.
func TestMailboxDropsAtCap(t *testing.T) {
	m := NewMailbox(DropWhenFull)
	defer m.Close()
	for i := 0; i < MailboxCap; i++ {
		if err := m.Put(seq(0, i)); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if err := m.Put(seq(0, MailboxCap)); !errors.Is(err, ErrFull) {
		t.Fatalf("message %d: %v, want ErrFull", MailboxCap, err)
	}
	<-m.Recv()
	for deadline := time.Now().Add(5 * time.Second); m.Put(seq(0, MailboxCap)) != nil; settle() {
		if time.Now().After(deadline) {
			t.Fatal("a Recv made no room")
		}
	}
}

// TestLoopbackSendBlocksAtCap: MailboxCap sends queue without a reader, the
// next one blocks, and one Recv lets it through, behind the others.
func TestLoopbackSendBlocksAtCap(t *testing.T) {
	nw := NewLoopbackNetwork([]NodeID{0, 1})
	defer closeAll(nw)
	for i := 0; i < MailboxCap; i++ {
		if err := nw[0].Send(1, seq(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- nw[0].Send(1, seq(0, MailboxCap)) }()
	settle()
	select {
	case err := <-sent:
		t.Fatalf("send %d did not block at the cap (err %v)", MailboxCap+1, err)
	default:
	}
	if got := seqOf(t, recvOne(t, nw[1])); got != 0 {
		t.Fatalf("first message is %d", got)
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Recv did not unblock the sender")
	}
	for i := 1; i <= MailboxCap; i++ {
		if got := seqOf(t, recvOne(t, nw[1])); got != i {
			t.Fatalf("message %d came out as %d", i, got)
		}
	}
}

// TestLoopbackCloseWakesBlockedSend: closing a node whose full mailbox
// nobody reads wakes a sender blocked on it with ErrClosed, and Close
// itself returns. (When a sender held the node's lock across a channel
// send, Close waited for that lock forever.)
func TestLoopbackCloseWakesBlockedSend(t *testing.T) {
	nw := NewLoopbackNetwork([]NodeID{0, 1})
	defer nw[0].Close()
	for i := 0; i < MailboxCap; i++ {
		if err := nw[0].Send(1, Envelope{}); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- nw[0].Send(1, Envelope{}) }()
	settle()
	closed := make(chan struct{})
	go func() {
		nw[1].Close()
		close(closed)
	}()
	for _, c := range []struct {
		what string
		ch   <-chan struct{}
	}{{"Close", closed}, {"the blocked Send", sendDone(sent, t)}} {
		select {
		case <-c.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return: closing deadlocked against the blocked Send", c.what)
		}
	}
}

// sendDone closes the returned channel when a Send's error arrives on sent,
// reporting anything but ErrClosed.
func sendDone(sent <-chan error, t *testing.T) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := <-sent; !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Send returned %v, want ErrClosed", err)
		}
	}()
	return done
}

// TestTCPReadLoopStopsAtCap: a TCP node whose reader has stopped delivers
// MailboxCap messages and then stops reading its socket; one Recv lets the
// next message in.
func TestTCPReadLoopStopsAtCap(t *testing.T) {
	nw, err := NewTCPNetwork([]NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nw)
	for i := 0; i <= MailboxCap; i++ {
		if err := nw[0].Send(1, seq(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	recvd := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); nw[1].Stats().MsgsRecv != want; settle() {
			if time.Now().After(deadline) {
				t.Fatalf("%d messages delivered, want %d", nw[1].Stats().MsgsRecv, want)
			}
		}
	}
	recvd(MailboxCap)
	settle()
	if got := nw[1].Stats().MsgsRecv; got != MailboxCap {
		t.Fatalf("%d messages delivered past the cap of %d", got, MailboxCap)
	}
	recvOne(t, nw[1])
	recvd(MailboxCap + 1)
}
