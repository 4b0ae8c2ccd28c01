package rpc

import (
	"errors"
	"sync"
)

// MailboxCap is the most messages a mailbox queues. Over the test suite
// and the chaos suite no mailbox of a runtime held more than 10 at once (a
// step protocol keeps O(workers) messages in flight; only the transport's
// own many-senders stress test reaches a few hundred), so the cap is a
// backstop against a runaway sender, not a working depth.
const MailboxCap = 4096

// mailboxBuffer is the part of a backlog a mailbox's channel holds. A
// backlog beyond it spills into a slice that grows with it and is released
// when it drains, so an idle mailbox costs mailboxBuffer envelopes, not
// MailboxCap.
const mailboxBuffer = 16

// Full is what Put does with a message that finds its mailbox at MailboxCap.
type Full uint8

const (
	// BlockWhenFull makes Put wait until the reader takes a message or the
	// mailbox closes: a loopback sender, and a TCP read loop, which then
	// stops reading its socket.
	BlockWhenFull Full = iota
	// DropWhenFull makes Put discard the message and return ErrFull: the
	// master's step-protocol inbox, whose consumers treat a lost message as
	// a network loss.
	DropWhenFull
)

// ErrFull is returned by Put on a full DropWhenFull mailbox.
var ErrFull = errors.New("rpc: mailbox full")

// Mailbox is a bounded FIFO queue of envelopes with a channel for its
// reader. Its memory follows its backlog: the channel buffers mailboxBuffer
// messages, and a pump goroutine, alive only while the backlog exceeds
// that, feeds the channel from a spill slice in order. Put is safe for
// concurrent use; the messages of one sender arrive in the order it put
// them.
//
// Close ends the mailbox: blocked and later Puts return ErrClosed, and the
// reader receives every message queued before Close and then sees the
// channel closed. A reader that stops before the end must drain a closed
// mailbox (range over Recv) to release a pump still holding a spill.
type Mailbox struct {
	out  chan Envelope
	full Full

	mu      sync.Mutex
	space   sync.Cond  // a spilled message moved into out, or Close
	spill   []Envelope // the backlog behind out's buffer, oldest first
	pumping bool
	closed  bool
}

// NewMailbox returns an empty mailbox that treats a Put at MailboxCap as
// full says.
func NewMailbox(full Full) *Mailbox {
	m := &Mailbox{out: make(chan Envelope, mailboxBuffer), full: full}
	m.space.L = &m.mu
	return m
}

// Recv returns the channel the mailbox delivers on, closed by Close.
func (m *Mailbox) Recv() <-chan Envelope { return m.out }

// Put queues env behind every message already queued. It returns ErrClosed
// once the mailbox is closed (waking a Put blocked at the cap), and ErrFull
// at the cap of a DropWhenFull mailbox.
func (m *Mailbox) Put(env Envelope) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return ErrClosed
		}
		if len(m.spill) == 0 {
			select {
			case m.out <- env:
				return nil
			default:
			}
		}
		if len(m.spill) < MailboxCap-mailboxBuffer {
			break
		}
		if m.full == DropWhenFull {
			return ErrFull
		}
		m.space.Wait()
	}
	m.spill = append(m.spill, env)
	if !m.pumping {
		m.pumping = true
		go m.pump()
	}
	return nil
}

// pump moves the spill into out, oldest first, and exits when it is empty;
// it closes out when Close came while it ran.
func (m *Mailbox) pump() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.spill) > 0 {
		env := m.spill[0]
		m.mu.Unlock()
		m.out <- env
		m.mu.Lock()
		m.spill[0] = Envelope{}
		m.spill = m.spill[1:]
		m.space.Signal()
	}
	m.spill, m.pumping = nil, false
	if m.closed {
		close(m.out)
	}
}

// Close closes the mailbox; see Mailbox. It is idempotent.
func (m *Mailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.space.Broadcast()
	if !m.pumping {
		close(m.out)
	}
}
