// Package rpc provides the actor-style message transport that Fractal's
// master and workers communicate over (Section 4, "Proof of concept over
// Spark and Akka"). Two implementations are provided: an in-process loopback
// (mailboxes in memory) for in-process workers, and a real TCP transport with
// binary length-prefixed framing (frame.go), which carries the traffic of a
// -listen master and its workers across OS processes and machines (the
// fractal-worker deployment).
//
// The package does not import net. On Linux it opens its sockets through
// syscall and hands them to the runtime poller as *os.File (sock_linux.go),
// so a job binary links no cgo and loads no C library; other platforms keep
// a thin net adapter (sock_other.go). Neither resolves names: a host is an
// IP literal, localhost or empty, and any other name is an *AddrError.
//
// Address discovery is dynamic: a TCP node binds one configurable listener
// (NewTCPNode) and learns peers incrementally through AddPeer — in the
// scheduling layer a worker dials the master's address, registers and
// receives its node ID, and each step start names the step's participants
// with their addresses; this replaced a bind-everything-up-front address
// book. The
// pre-bound 127.0.0.1 network (NewTCPNetwork), built on the same primitives,
// serves the transport tests and the benchmark's round-trip probe.
//
// The TCP transport is hardened for partial failure: dials retry with
// exponential backoff plus jitter (aborting promptly when the transport
// closes), every message write carries a deadline, and a send that fails on
// a cached connection drops it and redials once before reporting the peer
// unreachable. Callers therefore see a Send error only when the peer is
// genuinely gone (or persistently wedged past the write deadline), and the
// error distinguishes an unreachable peer (*DialError) from a write that
// failed on a freshly established connection — which the scheduling layer
// converts into worker-loss handling instead of blocking forever.
package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a node. The master is node -1; workers are 0..n-1.
type NodeID int

// Master is the NodeID of the application master.
const Master NodeID = -1

// Unregistered is the provisional NodeID of a worker that has not completed
// the registration handshake: it can dial and send (the master learns its
// real identity from the registration body, not the envelope), and adopts
// its assigned ID via SetSelf when the welcome arrives.
const Unregistered NodeID = -2

// Envelope is one message: an already-encoded body tagged with a kind
// understood by the scheduling layer. Body is read-only from the moment it
// is handed to Send: no transport copies it, the loopback delivers the very
// slice to the receiver, and one body may go to several destinations. A
// sender that wants its buffer back sends a copy.
type Envelope struct {
	From NodeID
	Kind uint8
	Body []byte
}

// Transport is one node's endpoint: a mailbox plus a way to send to peers.
type Transport interface {
	// Self returns this node's ID.
	Self() NodeID
	// Send delivers env to the mailbox of node to. It is safe for
	// concurrent use. env.Body passes to the transport and the receiver
	// (see Envelope): the caller must not write to it afterwards.
	Send(to NodeID, env Envelope) error
	// Recv returns the mailbox channel. The channel is closed by Close.
	Recv() <-chan Envelope
	// Stats returns this node's cumulative message/byte counters.
	Stats() Stats
	// Done returns a channel closed when the transport closes. Waits that
	// would outlive the transport (dial backoff, injected fault delays)
	// select on it so Close is never blocked behind a sleeping sender.
	Done() <-chan struct{}
	// Close releases resources and closes the mailbox.
	Close() error
}

// Stats holds one node's cumulative transport counters since creation.
// Bytes count message payloads (Envelope.Body); framing overhead is not
// included, so loopback and TCP report comparable numbers. A message is
// counted as received when it is delivered into the node's mailbox.
type Stats struct {
	MsgsSent  int64 `json:"msgs_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
}

// Sub returns s minus o, counter-wise: the traffic between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		MsgsSent:  s.MsgsSent - o.MsgsSent,
		MsgsRecv:  s.MsgsRecv - o.MsgsRecv,
		BytesSent: s.BytesSent - o.BytesSent,
		BytesRecv: s.BytesRecv - o.BytesRecv,
	}
}

// Add returns s plus o, counter-wise.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		MsgsSent:  s.MsgsSent + o.MsgsSent,
		MsgsRecv:  s.MsgsRecv + o.MsgsRecv,
		BytesSent: s.BytesSent + o.BytesSent,
		BytesRecv: s.BytesRecv + o.BytesRecv,
	}
}

// counters is the shared atomic implementation behind Stats.
type counters struct {
	msgsSent, msgsRecv   atomic.Int64
	bytesSent, bytesRecv atomic.Int64
}

func (c *counters) countSend(env Envelope) {
	c.msgsSent.Add(1)
	c.bytesSent.Add(int64(len(env.Body)))
}

func (c *counters) countRecv(env Envelope) {
	c.msgsRecv.Add(1)
	c.bytesRecv.Add(int64(len(env.Body)))
}

func (c *counters) stats() Stats {
	return Stats{
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
	}
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("rpc: transport closed")

// ErrUnknownPeer is returned by Send for an unknown destination.
var ErrUnknownPeer = errors.New("rpc: unknown peer")

// DialError reports that a peer could not be dialed at all: every connection
// attempt (with backoff) failed. It is distinct from a write failure on an
// established connection — a DialError in a WorkerLostError chain means the
// peer's listener is gone (process dead, address wrong), not that a live
// connection broke mid-message.
type DialError struct {
	// Node is the unreachable peer.
	Node NodeID
	// Addr is the address dialed.
	Addr string
	// Attempts is how many connection attempts were made.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (e *DialError) Error() string {
	return fmt.Sprintf("rpc: dial node %d (%s) failed after %d attempts: %v", e.Node, e.Addr, e.Attempts, e.Err)
}

func (e *DialError) Unwrap() error { return e.Err }

// tcpOptions tunes the failure behaviour of the TCP transport. A dial makes
// up to dialAttempts attempts of at most dialTimeout each; the wait before
// the second is dialBackoff, doubling per attempt up to dialMaxBackoff, plus
// up to 50% random jitter to decorrelate concurrent redials. A peer that
// does not drain its socket within sendTimeout of a write is unreachable.
type tcpOptions struct {
	dialAttempts                                          int
	dialBackoff, dialMaxBackoff, dialTimeout, sendTimeout time.Duration
}

// defaultTCPOptions is the tuning of every node NewTCPNode makes; the
// transport's own tests shorten it through newTCPNode.
var defaultTCPOptions = tcpOptions{4, 10 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second, 10 * time.Second}

// listener is the transport's view of a TCP listener: sock_linux.go opens
// it through syscall, sock_other.go through net.
type listener interface {
	Accept() (conn, error)
	Close() error
	// Addr is the bound address as "ip:port" ("[ip]:port" for IPv6).
	Addr() string
}

// conn is one TCP connection: a socket *os.File on Linux, a net.Conn
// elsewhere (and net.Pipe in tests).
type conn interface {
	io.ReadWriteCloser
	SetWriteDeadline(time.Time) error
}

// dialWithBackoff dials addr, retrying with exponential backoff and jitter.
// The backoff waits abort when done closes (the transport is shutting down),
// so a cancelled run never blocks out a full retry schedule against a dead
// peer before noticing. An address the transport refuses (*AddrError) is not
// retried. A dial that fails is a *DialError without its Node.
func dialWithBackoff(addr string, o tcpOptions, done <-chan struct{}) (conn, error) {
	backoff := o.dialBackoff
	var lastErr error
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	attempt := 0
	for attempt < o.dialAttempts {
		if attempt > 0 {
			jitter := time.Duration(rand.Int63n(int64(backoff)/2 + 1))
			timer.Reset(backoff + jitter)
			select {
			case <-timer.C:
			case <-done:
				return nil, ErrClosed
			}
			backoff *= 2
			if backoff > o.dialMaxBackoff {
				backoff = o.dialMaxBackoff
			}
		}
		select {
		case <-done:
			return nil, ErrClosed
		default:
		}
		c, err := dial(addr, o.dialTimeout)
		if err == nil {
			return c, nil
		}
		attempt++
		lastErr = err
		var ae *AddrError
		if errors.As(err, &ae) {
			break
		}
	}
	return nil, &DialError{Addr: addr, Attempts: attempt, Err: lastErr}
}

// ---------------------------------------------------------------------------
// Loopback transport

type loopNode struct {
	id    NodeID
	net   *loopNetwork
	box   *Mailbox // BlockWhenFull: a sender waits for the reader
	done  chan struct{}
	ctrs  counters
	close sync.Once
}

type loopNetwork struct {
	nodes map[NodeID]*loopNode
}

// NewLoopbackNetwork returns connected in-process transports for the given
// node IDs.
func NewLoopbackNetwork(ids []NodeID) map[NodeID]Transport {
	nw := &loopNetwork{nodes: map[NodeID]*loopNode{}}
	out := map[NodeID]Transport{}
	for _, id := range ids {
		n := &loopNode{id: id, net: nw, box: NewMailbox(BlockWhenFull), done: make(chan struct{})}
		nw.nodes[id] = n
		out[id] = n
	}
	return out
}

func (n *loopNode) Self() NodeID { return n.id }

func (n *loopNode) Send(to NodeID, env Envelope) error {
	dst, ok := n.net.nodes[to]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, to)
	}
	env.From = n.id
	if err := dst.box.Put(env); err != nil {
		return err
	}
	n.ctrs.countSend(env)
	dst.ctrs.countRecv(env)
	return nil
}

func (n *loopNode) Recv() <-chan Envelope { return n.box.Recv() }

func (n *loopNode) Stats() Stats { return n.ctrs.stats() }

func (n *loopNode) Done() <-chan struct{} { return n.done }

func (n *loopNode) Close() error {
	n.close.Do(func() {
		close(n.done)
		n.box.Close()
	})
	return nil
}

// ---------------------------------------------------------------------------
// TCP transport

// TCPNode is the TCP transport implementation: one listener plus lazily
// dialed peer connections, with a dynamic address book. It implements
// Transport; the extra methods (Addr, AddPeer, SetSelf) are the hooks the
// scheduling layer's registration handshake is built from.
type TCPNode struct {
	self  atomic.Int64
	ln    listener
	opts  tcpOptions
	box   *Mailbox // BlockWhenFull: a full box stops the read loops
	done  chan struct{}
	ctrs  counters
	close sync.Once

	bookMu sync.RWMutex
	book   map[NodeID]string // peer -> address

	mu      sync.Mutex
	conns   map[NodeID]*tcpConn
	inbound map[conn]struct{}
	wg      sync.WaitGroup
}

type tcpConn struct {
	mu sync.Mutex
	c  conn
	// hdr and w are the scratch of one send: the frame header, and the
	// header and the caller's body as one gather write. The connection never
	// copies a body, so it holds nothing of a frame it has sent.
	hdr [frameHeaderMax]byte
	w   frameWriter
}

// send writes env as one frame onto the connection under a write deadline.
func (tc *tcpConn) send(env Envelope, timeout time.Duration) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if timeout > 0 {
		tc.c.SetWriteDeadline(time.Now().Add(timeout))
		defer tc.c.SetWriteDeadline(time.Time{})
	}
	return tc.w.send(tc.c, appendFrameHeader(tc.hdr[:0], env), env.Body)
}

// NewTCPNode binds one listener at listenAddr (e.g. "127.0.0.1:0",
// ":7001") and returns a transport for node self with an empty address
// book. Peers are added with AddPeer and dialed lazily on first send. Hosts,
// here and in AddPeer, are IP literals ("[::1]:7001" for IPv6), localhost
// or empty (listen: every interface; dial: this machine); a name is an
// *AddrError, and nothing is looked up.
func NewTCPNode(self NodeID, listenAddr string) (*TCPNode, error) {
	return newTCPNode(self, listenAddr, defaultTCPOptions)
}

func newTCPNode(self NodeID, listenAddr string, opts tcpOptions) (*TCPNode, error) {
	ln, err := listen(listenAddr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", listenAddr, err)
	}
	n := &TCPNode{
		ln:      ln,
		opts:    opts,
		box:     NewMailbox(BlockWhenFull),
		done:    make(chan struct{}),
		book:    map[NodeID]string{},
		conns:   map[NodeID]*tcpConn{},
		inbound: map[conn]struct{}{},
	}
	n.self.Store(int64(self))
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the listener's bound address. Unless its host is a wildcard
// ("[::]" or "0.0.0.0"), it is what other nodes' AddPeer takes; see
// AdvertiseAddr.
func (n *TCPNode) Addr() string { return n.ln.Addr() }

// AdvertiseAddr returns the address other nodes dial to reach this one: Addr,
// or, when the listener is bound to a wildcard host, the local IP of this
// node's connection to peer via (dialed now if there is none) with the
// listener's port. That IP is the interface traffic to via leaves by, so a
// node that reaches via over loopback advertises loopback.
func (n *TCPNode) AdvertiseAddr(via NodeID) (string, error) {
	ip, port, err := resolve(n.Addr())
	if err != nil || (ip.IsValid() && !ip.IsUnspecified()) {
		return n.Addr(), err
	}
	tc, _, err := n.conn(via)
	if err != nil {
		return "", err
	}
	local, err := localAddr(tc.c)
	if err != nil {
		return "", err
	}
	return netip.AddrPortFrom(local.Addr().Unmap(), port).String(), nil
}

// AddPeer installs (or updates) the address of a peer. An existing cached
// connection to the peer is dropped when the address changed, so subsequent
// sends dial the new address. Safe for concurrent use.
func (n *TCPNode) AddPeer(id NodeID, addr string) {
	n.bookMu.Lock()
	old, had := n.book[id]
	n.book[id] = addr
	n.bookMu.Unlock()
	if had && old != addr {
		n.mu.Lock()
		tc := n.conns[id]
		delete(n.conns, id)
		n.mu.Unlock()
		if tc != nil {
			tc.c.Close()
		}
	}
}

// SetSelf adopts a node ID: subsequent sends stamp it as Envelope.From. A
// worker transport starts Unregistered and adopts the ID assigned by the
// master's welcome.
func (n *TCPNode) SetSelf(id NodeID) { n.self.Store(int64(id)) }

// NewTCPNetwork binds one 127.0.0.1 listener per node ID, shares the address
// book, and returns the transports.
// Connections are established lazily.
func NewTCPNetwork(ids []NodeID) (map[NodeID]Transport, error) {
	nodes := map[NodeID]*TCPNode{}
	for _, id := range ids {
		n, err := NewTCPNode(id, "127.0.0.1:0")
		if err != nil {
			for _, m := range nodes {
				m.Close()
			}
			return nil, fmt.Errorf("rpc: listen for node %d: %w", id, err)
		}
		nodes[id] = n
	}
	out := map[NodeID]Transport{}
	for id, n := range nodes {
		for pid, p := range nodes {
			if pid != id {
				n.AddPeer(pid, p.Addr())
			}
		}
		out[id] = n
	}
	return out, nil
}

func (n *TCPNode) Self() NodeID { return NodeID(n.self.Load()) }

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		select {
		case <-n.done:
			n.mu.Unlock()
			c.Close()
			return
		default:
		}
		n.inbound[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(c)
	}
}

func (n *TCPNode) readLoop(c conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
	}()
	r := bufio.NewReader(c)
	for {
		env, err := readFrame(r)
		if err != nil {
			return
		}
		if n.box.Put(env) != nil {
			return // closed
		}
		n.ctrs.countRecv(env)
	}
}

// watch reads the connection to a peer, which the peer never writes to,
// until it ends: the peer closed it (it exited) or this node did. The peer's
// close drops the cached connection, because the first write into a
// connection the peer has closed succeeds without reaching anyone; the next
// send redials instead, and fails at once if the peer is gone.
func (n *TCPNode) watch(to NodeID, tc *tcpConn) {
	defer n.wg.Done()
	var b [1]byte
	for {
		if _, err := tc.c.Read(b[:]); err != nil {
			break
		}
	}
	n.dropConn(to, tc)
}

// conn returns the cached connection to a peer, dialing its address-book
// address (with retry and backoff) when none exists. The dial happens outside
// the node lock so a dead peer's backoff never stalls sends to healthy peers.
// fresh reports whether the returned connection was newly established here.
func (n *TCPNode) conn(to NodeID) (tc *tcpConn, fresh bool, err error) {
	n.mu.Lock()
	tc, ok := n.conns[to]
	n.mu.Unlock()
	if ok {
		return tc, false, nil
	}
	n.bookMu.RLock()
	addr, ok := n.book[to]
	n.bookMu.RUnlock()
	if !ok {
		return nil, false, fmt.Errorf("%w: %d", ErrUnknownPeer, to)
	}
	c, err := dialWithBackoff(addr, n.opts, n.done)
	if err != nil {
		var de *DialError
		if errors.As(err, &de) {
			de.Node = to
		}
		return nil, false, err
	}
	n.mu.Lock()
	select {
	case <-n.done:
		n.mu.Unlock()
		c.Close()
		return nil, false, ErrClosed
	default:
	}
	if existing, ok := n.conns[to]; ok {
		// A concurrent send won the dial race; use its connection.
		n.mu.Unlock()
		c.Close()
		return existing, false, nil
	}
	tc = &tcpConn{c: c}
	n.conns[to] = tc
	n.wg.Add(1)
	n.mu.Unlock()
	go n.watch(to, tc)
	return tc, true, nil
}

// dropConn discards a broken connection so the next send redials.
func (n *TCPNode) dropConn(to NodeID, tc *tcpConn) {
	n.mu.Lock()
	if n.conns[to] == tc {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	tc.c.Close()
}

func (n *TCPNode) Send(to NodeID, env Envelope) error {
	select {
	case <-n.done:
		return ErrClosed
	default:
	}
	env.From = n.Self()
	// A write failure on a cached connection usually means the peer reset it
	// (or it idled out); drop it and retry once on a fresh dial. The frame
	// writer reports an error whenever any underlying write failed, so a
	// retried message is duplicated only if the first write flushed
	// completely yet still errored — which cannot happen — while a partially
	// written frame is discarded by the receiver's length-prefixed decoder
	// when the old connection dies.
	//
	// The two failure shapes stay distinct in the returned error: a peer
	// that cannot be dialed at all surfaces as *DialError (its listener is
	// gone), while writes that keep failing — including on a connection this
	// very send freshly established — surface as a write failure naming
	// that, so worker-loss diagnostics report the real cause.
	var lastErr error
	lastFresh := false
	for attempt := 0; attempt < 2; attempt++ {
		tc, fresh, err := n.conn(to)
		if err != nil {
			if lastErr != nil && !errors.Is(err, ErrClosed) {
				// A cached-connection write failed and then the redial
				// failed too: the dial failure is the operative cause.
				return fmt.Errorf("rpc: send to node %d: write failed (%v), then redial failed: %w", to, lastErr, err)
			}
			return err
		}
		if err := tc.send(env, n.opts.sendTimeout); err != nil {
			n.dropConn(to, tc)
			lastErr = err
			lastFresh = fresh
			continue
		}
		n.ctrs.countSend(env)
		return nil
	}
	if lastFresh {
		return fmt.Errorf("rpc: send to node %d: write failed on freshly dialed connection: %w", to, lastErr)
	}
	return fmt.Errorf("rpc: send to node %d: %w", to, lastErr)
}

func (n *TCPNode) Recv() <-chan Envelope { return n.box.Recv() }

func (n *TCPNode) Stats() Stats { return n.ctrs.stats() }

func (n *TCPNode) Done() <-chan struct{} { return n.done }

func (n *TCPNode) Close() error {
	n.close.Do(func() {
		close(n.done)
		n.ln.Close()
		n.mu.Lock()
		for _, tc := range n.conns {
			tc.c.Close()
		}
		n.conns = map[NodeID]*tcpConn{}
		for c := range n.inbound {
			c.Close()
		}
		n.mu.Unlock()
		n.box.Close() // before the wait: it wakes a read loop blocked on a full box
		n.wg.Wait()
	})
	return nil
}
