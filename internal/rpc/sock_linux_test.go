package rpc

import (
	"syscall"
	"testing"
	"time"
)

// TestSocketOptions: dialed and accepted sockets carry the options net sets,
// read back through SyscallConn. Without TCP_NODELAY a small frame waits for
// the peer's delayed ACK.
func TestSocketOptions(t *testing.T) {
	ln, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := acceptOne(t, ln.Accept)
	c, err := dial(ln.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := received(t, ch)
	defer s.Close()
	for name, x := range map[string]conn{"dialed": c, "accepted": s} {
		sc, ok := x.(syscall.Conn)
		if !ok {
			t.Fatalf("%s: %T has no SyscallConn", name, x)
		}
		rc, err := sc.SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []struct {
			name       string
			level, opt int
		}{
			{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY},
			{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE},
		} {
			var v int
			var gerr error
			if err := rc.Control(func(fd uintptr) { v, gerr = syscall.GetsockoptInt(int(fd), o.level, o.opt) }); err != nil {
				t.Fatal(err)
			}
			if gerr != nil || v != 1 {
				t.Errorf("%s socket: %s = %d (%v), want 1", name, o.name, v, gerr)
			}
		}
	}
}
