//go:build !linux

// Outside Linux the transport's sockets are net's. Addresses are resolved as
// on Linux first (IP literals and localhost; no name lookups), so an address
// means the same on every platform.

package rpc

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"time"
)

func listen(addr string) (listener, error) {
	hp, err := literal(addr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", hp)
	if err != nil {
		return nil, err
	}
	return netListener{ln}, nil
}

type netListener struct{ ln net.Listener }

func (l netListener) Accept() (conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (l netListener) Close() error { return l.ln.Close() }

func (l netListener) Addr() string { return l.ln.Addr().String() }

func dial(addr string, timeout time.Duration) (conn, error) {
	hp, err := literal(addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", hp, timeout)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// localAddr is the address c's socket is bound to.
func localAddr(c conn) (netip.AddrPort, error) {
	if nc, ok := c.(net.Conn); ok {
		if a, ok := nc.LocalAddr().(*net.TCPAddr); ok {
			return a.AddrPort(), nil
		}
	}
	return netip.AddrPort{}, fmt.Errorf("rpc: a %T has no TCP address", c)
}

// literal returns addr with its host resolved, in a form net parses without
// a lookup.
func literal(addr string) (string, error) {
	ip, port, err := resolve(addr)
	if err != nil {
		return "", err
	}
	if !ip.IsValid() {
		return ":" + strconv.Itoa(int(port)), nil
	}
	return netip.AddrPortFrom(ip, port).String(), nil
}

// frameWriter sends a frame's header and body as one net.Buffers write (one
// writev on a TCP connection), so the body is never copied.
type frameWriter struct {
	parts [2][]byte
	vec   net.Buffers
}

func (w *frameWriter) send(c conn, hdr, body []byte) error {
	w.parts = [2][]byte{hdr, body}
	w.vec = w.parts[:]
	_, err := w.vec.WriteTo(c)
	w.parts = [2][]byte{} // a failed write leaves the body referenced
	return err
}
