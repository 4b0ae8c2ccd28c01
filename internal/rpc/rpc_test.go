package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

func networks(t *testing.T) map[string]func(ids []NodeID) map[NodeID]Transport {
	t.Helper()
	return map[string]func(ids []NodeID) map[NodeID]Transport{
		"loopback": NewLoopbackNetwork,
		"tcp": func(ids []NodeID) map[NodeID]Transport {
			nw, err := NewTCPNetwork(ids)
			if err != nil {
				t.Fatal(err)
			}
			return nw
		},
	}
}

func recvOne(t *testing.T, tr Transport) Envelope {
	t.Helper()
	select {
	case env, ok := <-tr.Recv():
		if !ok {
			t.Fatal("mailbox closed")
		}
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for message")
	}
	return Envelope{}
}

func TestSendRecvBothTransports(t *testing.T) {
	for name, mk := range networks(t) {
		t.Run(name, func(t *testing.T) {
			nw := mk([]NodeID{Master, 0, 1})
			defer closeAll(nw)
			if err := nw[Master].Send(0, Envelope{Kind: 7, Body: []byte("hi")}); err != nil {
				t.Fatal(err)
			}
			env := recvOne(t, nw[0])
			if env.From != Master || env.Kind != 7 || string(env.Body) != "hi" {
				t.Errorf("got %+v", env)
			}
			// Worker to worker.
			if err := nw[0].Send(1, Envelope{Kind: 9}); err != nil {
				t.Fatal(err)
			}
			env = recvOne(t, nw[1])
			if env.From != 0 || env.Kind != 9 {
				t.Errorf("got %+v", env)
			}
		})
	}
}

func TestUnknownPeer(t *testing.T) {
	for name, mk := range networks(t) {
		t.Run(name, func(t *testing.T) {
			nw := mk([]NodeID{Master, 0})
			defer closeAll(nw)
			err := nw[0].Send(42, Envelope{})
			if !errors.Is(err, ErrUnknownPeer) {
				t.Errorf("err=%v, want ErrUnknownPeer", err)
			}
		})
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	for name, mk := range networks(t) {
		t.Run(name, func(t *testing.T) {
			nw := mk([]NodeID{Master, 0})
			nw[0].Close()
			// Sending from the closed node must fail (loopback reports the
			// destination's state; tcp reports the sender's).
			errSelf := nw[0].Send(Master, Envelope{})
			errTo := nw[Master].Send(0, Envelope{})
			if errSelf == nil && errTo == nil {
				t.Error("both directions succeeded after close")
			}
			nw[Master].Close()
		})
	}
}

// TestBodyPassesUncopied pins Send's ownership contract on the loopback: the
// receiver gets the sender's slice itself, and one body may go to several
// destinations. (A sender that reuses its buffer sends a copy.)
func TestBodyPassesUncopied(t *testing.T) {
	nw := NewLoopbackNetwork([]NodeID{0, 1, 2})
	defer closeAll(nw)
	buf := []byte("abc")
	for _, to := range []NodeID{1, 2} {
		if err := nw[0].Send(to, Envelope{Body: buf}); err != nil {
			t.Fatal(err)
		}
	}
	for _, to := range []NodeID{1, 2} {
		if env := recvOne(t, nw[to]); string(env.Body) != "abc" || &env.Body[0] != &buf[0] {
			t.Errorf("node %d received %q in another array, want the sender's own", to, env.Body)
		}
	}
}

func TestManyMessagesManySenders(t *testing.T) {
	for name, mk := range networks(t) {
		t.Run(name, func(t *testing.T) {
			const senders, per = 4, 200
			ids := []NodeID{Master}
			for i := 0; i < senders; i++ {
				ids = append(ids, NodeID(i))
			}
			nw := mk(ids)
			defer closeAll(nw)
			var wg sync.WaitGroup
			for i := 0; i < senders; i++ {
				wg.Add(1)
				go func(id NodeID) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						if err := nw[id].Send(Master, Envelope{Kind: 1, Body: []byte(fmt.Sprintf("%d-%d", id, j))}); err != nil {
							t.Error(err)
							return
						}
					}
				}(NodeID(i))
			}
			got := map[string]bool{}
			for len(got) < senders*per {
				env := recvOne(t, nw[Master])
				got[string(env.Body)] = true
			}
			wg.Wait()
			if len(got) != senders*per {
				t.Errorf("received %d distinct messages, want %d", len(got), senders*per)
			}
		})
	}
}

func TestTCPLargeBody(t *testing.T) {
	nw, err := NewTCPNetwork([]NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nw)
	body := make([]byte, 1<<20)
	for i := range body {
		body[i] = byte(i)
	}
	if err := nw[0].Send(1, Envelope{Kind: 2, Body: body}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, nw[1])
	if len(env.Body) != len(body) {
		t.Fatalf("got %d bytes, want %d", len(env.Body), len(body))
	}
	for i := 0; i < len(body); i += 37 {
		if env.Body[i] != body[i] {
			t.Fatal("body corrupted in transit")
		}
	}
}

func TestTCPDoubleCloseSafe(t *testing.T) {
	nw, err := NewTCPNetwork([]NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nw[0].Close(); err != nil {
		t.Fatal("second close errored")
	}
	nw[1].Close()
}

func closeAll(nw map[NodeID]Transport) {
	for _, tr := range nw {
		tr.Close()
	}
}

// TestDialRetrySucceedsOnceListenerAppears reserves an address, refuses the
// first connection attempts by keeping it unbound, and binds a listener only
// after a delay: dialWithBackoff must retry through the refusals and connect.
func TestDialRetrySucceedsOnceListenerAppears(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // connections are now refused

	accepted := make(chan struct{})
	go func() {
		time.Sleep(40 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("rebinding %s: %v", addr, err)
			close(accepted)
			return
		}
		defer ln2.Close()
		if c, err := ln2.Accept(); err == nil {
			c.Close()
		}
		close(accepted)
	}()

	opts := defaultTCPOptions
	opts.dialAttempts, opts.dialBackoff, opts.dialMaxBackoff = 10, 10*time.Millisecond, 50*time.Millisecond
	start := time.Now()
	c, err := dialWithBackoff(addr, opts, nil)
	if err != nil {
		t.Fatalf("dial never succeeded: %v", err)
	}
	c.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("dial succeeded in %v, before the listener could have been bound", elapsed)
	}
	<-accepted
}

// TestDialRetryGivesUp verifies the attempt cap and that backoff time was
// actually spent between attempts.
func TestDialRetryGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	opts := defaultTCPOptions
	opts.dialAttempts, opts.dialBackoff = 3, 20*time.Millisecond
	start := time.Now()
	_, err = dialWithBackoff(addr, opts, nil)
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	// Attempts sleep ~20ms then ~40ms (plus jitter) before giving up.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("gave up after %v, backoff not applied", elapsed)
	}
}

// TestSendWriteDeadline verifies that a peer which never drains its socket
// trips the per-message write deadline instead of blocking forever.
func TestSendWriteDeadline(t *testing.T) {
	c1, c2 := net.Pipe() // synchronous: writes block until the peer reads
	defer c2.Close()
	defer c1.Close()
	tc := &tcpConn{c: c1}
	errCh := make(chan error, 1)
	go func() {
		errCh <- tc.send(Envelope{Kind: 1, Body: make([]byte, 1<<16)}, 30*time.Millisecond)
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("send to a stalled peer succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send did not observe its write deadline")
	}
}

// TestSendRecoversAcrossBrokenConnection kills the cached connection under a
// sender and verifies the next Send transparently redials.
func TestSendRecoversAcrossBrokenConnection(t *testing.T) {
	nw, err := NewTCPNetwork([]NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nw)
	if err := nw[0].Send(1, Envelope{Kind: 1, Body: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	if string(recvOne(t, nw[1]).Body) != "first" {
		t.Fatal("first message corrupted")
	}
	// Sever the cached connection out from under the sender.
	n0 := nw[0].(*TCPNode)
	n0.mu.Lock()
	for _, tc := range n0.conns {
		tc.c.Close()
	}
	n0.mu.Unlock()
	// The write may fail on the first or second Send depending on buffering;
	// both must be absorbed by the redial-and-retry path.
	if err := nw[0].Send(1, Envelope{Kind: 2, Body: []byte("second")}); err != nil {
		t.Fatalf("send after broken connection: %v", err)
	}
	if string(recvOne(t, nw[1]).Body) != "second" {
		t.Fatal("second message corrupted")
	}
}

// TestPeerExitFailsTheNextSend: when a peer exits, a node drops its cached
// connection to it, so its next send fails with the refused dial instead of
// vanishing into the closed socket.
func TestPeerExitFailsTheNextSend(t *testing.T) {
	nw, err := NewTCPNetwork([]NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nw)
	n0 := nw[0].(*TCPNode)
	n0.opts.dialAttempts = 1
	if err := n0.Send(1, Envelope{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, nw[1])
	nw[1].Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n0.mu.Lock()
		_, cached := n0.conns[1]
		n0.mu.Unlock()
		if !cached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the connection to the exited peer is still cached")
		}
	}
	var de *DialError
	if err := n0.Send(1, Envelope{Kind: 2}); !errors.As(err, &de) {
		t.Fatalf("send to the exited peer: err=%v, want a *DialError", err)
	}
}

// TestDialBackoffAbortsOnDone verifies the satellite-1 fix: a dial in its
// backoff wait must return promptly (with ErrClosed) when the done channel
// closes, instead of sleeping out the remaining schedule.
func TestDialBackoffAbortsOnDone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // connections refused from here on

	opts := defaultTCPOptions
	opts.dialAttempts, opts.dialBackoff, opts.dialMaxBackoff = 50, 200*time.Millisecond, 5*time.Second
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(done)
	}()
	start := time.Now()
	_, err = dialWithBackoff(addr, opts, done)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err=%v, want ErrClosed", err)
	}
	// The full schedule would be seconds; abort must land near the close.
	if elapsed > 2*time.Second {
		t.Fatalf("dial aborted after %v, backoff was not interrupted", elapsed)
	}
}

// TestSendToDeadPeerReturnsDialError verifies the satellite-3 fix: a peer
// whose listener is gone surfaces as a typed *DialError, distinguishable
// from a write failure on an established connection.
func TestSendToDeadPeerReturnsDialError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	opts := defaultTCPOptions
	opts.dialAttempts, opts.dialBackoff = 2, time.Millisecond
	n, err := newTCPNode(0, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.AddPeer(1, deadAddr)
	err = n.Send(1, Envelope{Kind: 1})
	var de *DialError
	if !errors.As(err, &de) {
		t.Fatalf("err=%v (%T), want *DialError", err, err)
	}
	if de.Node != 1 || de.Addr != deadAddr || de.Attempts != 2 {
		t.Errorf("DialError fields: %+v", de)
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("err=%v, want it to wrap ECONNREFUSED", err)
	}
}

// TestDynamicNodeRegistrationFlow exercises the primitives the registration
// handshake is built from: an Unregistered node dials a known master
// address, the master learns the sender's address from the body, adds the
// peer, replies, and the worker adopts its assigned ID.
func TestDynamicNodeRegistrationFlow(t *testing.T) {
	master, err := NewTCPNode(Master, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	wk, err := NewTCPNode(Unregistered, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()

	wk.AddPeer(Master, master.Addr())
	if err := wk.Send(Master, Envelope{Kind: 1, Body: []byte(wk.Addr())}); err != nil {
		t.Fatal(err)
	}
	reg := recvOne(t, master)
	if reg.From != Unregistered {
		t.Fatalf("registration From=%d, want Unregistered", reg.From)
	}
	master.AddPeer(3, string(reg.Body))
	if err := master.Send(3, Envelope{Kind: 2, Body: []byte{3}}); err != nil {
		t.Fatal(err)
	}
	welcome := recvOne(t, wk)
	if welcome.From != Master || welcome.Body[0] != 3 {
		t.Fatalf("welcome %+v", welcome)
	}
	wk.SetSelf(NodeID(welcome.Body[0]))
	if wk.Self() != 3 {
		t.Fatalf("Self=%d after SetSelf", wk.Self())
	}
	if err := wk.Send(Master, Envelope{Kind: 4}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, master); env.From != 3 {
		t.Fatalf("post-welcome From=%d, want 3", env.From)
	}
}

// TestAddPeerRebindDropsStaleConn re-points a peer at a new address and
// verifies the next send reaches the new listener, not the cached old
// connection.
func TestAddPeerRebindDropsStaleConn(t *testing.T) {
	a, err := NewTCPNode(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := NewTCPNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer(1, b1.Addr())
	if err := a.Send(1, Envelope{Kind: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b1)
	b1.Close()

	b2, err := NewTCPNode(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	a.AddPeer(1, b2.Addr())
	if err := a.Send(1, Envelope{Kind: 2}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, b2); env.Kind != 2 {
		t.Fatalf("new listener got %+v", env)
	}
}
