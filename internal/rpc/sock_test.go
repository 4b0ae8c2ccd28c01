package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"
)

// frameBothWays sends one frame from a to b and one back, each read with the
// transport's own reader.
func frameBothWays(t *testing.T, a, b conn) {
	t.Helper()
	for i, p := range [2][2]conn{{a, b}, {b, a}} {
		body := []byte(fmt.Sprintf("frame %d", i))
		tc := &tcpConn{c: p[0]}
		if err := tc.send(Envelope{From: NodeID(i), Kind: 7, Body: body}, time.Second); err != nil {
			t.Fatalf("frame %d: send: %v", i, err)
		}
		env, err := readFrame(bufio.NewReader(p[1]))
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if env.From != NodeID(i) || env.Kind != 7 || string(env.Body) != string(body) {
			t.Fatalf("frame %d: got %+v, want From %d, Kind 7, Body %q", i, env, i, body)
		}
	}
}

// acceptOne accepts one connection in the background.
func acceptOne(t *testing.T, accept func() (conn, error)) <-chan conn {
	t.Helper()
	ch := make(chan conn, 1)
	go func() {
		c, err := accept()
		if err != nil {
			t.Errorf("accept: %v", err)
		}
		ch <- c
	}()
	return ch
}

func received(t *testing.T, ch <-chan conn) conn {
	t.Helper()
	select {
	case c := <-ch:
		if c == nil {
			t.FailNow()
		}
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no connection accepted within 5s")
	}
	return nil
}

// TestSocketInterop: the transport's sockets speak plain TCP. A net.Dial
// client reaches a listen listener, and dial reaches a net.Listen listener.
func TestSocketInterop(t *testing.T) {
	t.Run("net client", func(t *testing.T) {
		ln, err := listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		ch := acceptOne(t, ln.Accept)
		c, err := net.Dial("tcp", ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s := received(t, ch)
		defer s.Close()
		frameBothWays(t, c, s)
	})
	t.Run("net listener", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		ch := acceptOne(t, func() (conn, error) { c, err := ln.Accept(); return c, err })
		c, err := dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s := received(t, ch)
		defer s.Close()
		frameBothWays(t, c, s)
	})
}

// TestListenAddrIsDialable: every listen form prints an Addr that dial
// reaches; a wildcard listener's Addr names the wildcard, as net's does.
func TestListenAddrIsDialable(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:0", "localhost:0", ":0", "0.0.0.0:0", "[::]:0", "[::1]:0"} {
		t.Run(addr, func(t *testing.T) {
			ln, err := listen(addr)
			if err != nil {
				if addr == "[::1]:0" {
					t.Skipf("no IPv6 loopback: %v", err)
				}
				t.Fatal(err)
			}
			defer ln.Close()
			ip, port, err := resolve(ln.Addr())
			if err != nil || port == 0 || !ip.IsValid() {
				t.Fatalf("Addr() = %q: ip %v, port %d, err %v", ln.Addr(), ip, port, err)
			}
			ch := acceptOne(t, ln.Accept)
			c, err := dial(ln.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			s := received(t, ch)
			defer s.Close()
			frameBothWays(t, c, s)
		})
	}
}

// TestAdvertiseAddr: a node listening on a bound host advertises its Addr; a
// wildcard listener advertises the IP its connection to the named peer
// leaves from — 127.0.0.1 for a peer on loopback — with its own port, and a
// third node reaches it there.
func TestAdvertiseAddr(t *testing.T) {
	peer, err := NewTCPNode(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for _, listenAddr := range []string{"127.0.0.1:0", ":0", "0.0.0.0:0"} {
		t.Run(listenAddr, func(t *testing.T) {
			n, err := NewTCPNode(1, listenAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if _, err := n.AdvertiseAddr(0); listenAddr != "127.0.0.1:0" && !errors.Is(err, ErrUnknownPeer) {
				t.Fatalf("AdvertiseAddr via an unknown peer: %v, want ErrUnknownPeer", err)
			}
			n.AddPeer(0, peer.Addr())
			addr, err := n.AdvertiseAddr(0)
			if err != nil {
				t.Fatal(err)
			}
			_, port, _ := resolve(n.Addr())
			if want := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), port).String(); addr != want {
				t.Fatalf("AdvertiseAddr = %q (listening on %q), want %q", addr, n.Addr(), want)
			}
			third, err := NewTCPNode(2, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer third.Close()
			third.AddPeer(1, addr)
			if err := third.Send(1, Envelope{Kind: 5}); err != nil {
				t.Fatal(err)
			}
			if env := recvOne(t, n); env.From != 2 || env.Kind != 5 {
				t.Fatalf("received %+v, want kind 5 from node 2", env)
			}
		})
	}
}

// TestListenerCloseUnblocksAccept: Close wakes an Accept blocked on an idle
// listener, with an error (os.ErrClosed on Linux).
func TestListenerCloseUnblocksAccept(t *testing.T) {
	ln, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Accept block
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Accept on a closed listener returned a connection")
		}
		if runtime.GOOS == "linux" && !errors.Is(err, os.ErrClosed) {
			t.Errorf("Accept after Close: %v, want os.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the blocked Accept")
	}
}

// TestResolve pins the address forms: IP literals (IPv6 in brackets),
// localhost and an empty host; every name is refused, unresolved.
func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		addr string
		want string // the IP, "" for an empty host
		port uint16
	}{
		{"127.0.0.1:7001", "127.0.0.1", 7001},
		{"[::1]:80", "::1", 80},
		{"[::]:0", "::", 0},
		{"[::ffff:10.0.0.1]:1", "10.0.0.1", 1},
		{"localhost:9", "127.0.0.1", 9},
		{":65535", "", 65535},
	} {
		ip, port, err := resolve(tc.addr)
		if err != nil || port != tc.port || (tc.want == "") == ip.IsValid() || (ip.IsValid() && ip != netip.MustParseAddr(tc.want)) {
			t.Errorf("resolve(%q) = %v, %d, %v; want %q, %d", tc.addr, ip, port, err, tc.want, tc.port)
		}
	}
	for _, addr := range []string{
		"example.invalid:1", "127.0.0.1", "::1:80", "127.0.0.1:65536", "127.0.0.1:http",
		"127.0.0.1:", "[fe80::1%eth0]:1", "[localhost]:1", "[127.0.0.1:1",
	} {
		var ae *AddrError
		if _, _, err := resolve(addr); !errors.As(err, &ae) || ae.Addr != addr {
			t.Errorf("resolve(%q): err %v, want *AddrError", addr, err)
		}
	}
}

// TestNamesAreRefused: a host name is an *AddrError at listen and at dial,
// at once: no lookup, and a dial does not retry it.
func TestNamesAreRefused(t *testing.T) {
	const name = "example.invalid:1"
	var ae *AddrError
	if _, err := NewTCPNode(0, name); !errors.As(err, &ae) {
		t.Fatalf("listen on %s: %v, want *AddrError", name, err)
	}
	opts := defaultTCPOptions
	opts.dialBackoff = time.Second
	n, err := newTCPNode(0, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.AddPeer(1, name)
	start := time.Now()
	err = n.Send(1, Envelope{Kind: 1})
	var de *DialError
	if !errors.As(err, &de) || !errors.As(err, &ae) {
		t.Fatalf("send to %s: %v, want a *DialError wrapping *AddrError", name, err)
	}
	if de.Node != 1 || de.Attempts != 1 {
		t.Errorf("DialError fields: %+v, want node 1 after 1 attempt", de)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("refusing %s took %v", name, elapsed)
	}
}
