//go:build linux

// Sockets through syscall and the runtime poller. net is the one package of
// a job binary with cgo files, and linking it loads libc, ld.so and glibc's
// thread stacks into every process (~1.5 MB resident). Here each socket is
// created non-blocking and close-on-exec and wrapped by os.NewFile, which
// registers it with the runtime poller: Read, Write, write deadlines and a
// Close that wakes a blocked reader come from os, as they do for net's own
// sockets.

package rpc

import (
	"fmt"
	"net/netip"
	"os"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// listenBacklog asks for a long accept queue; the kernel caps it at
// net.core.somaxconn.
const listenBacklog = 4096

// keepAliveSeconds is net's default keep-alive idle time and probe interval.
const keepAliveSeconds = 15

// listen binds a TCP listener at addr. A wildcard host (empty, 0.0.0.0 or
// [::]) listens dual-stack on [::], as net does, or on 0.0.0.0 where the
// host has no IPv6.
func listen(addr string) (listener, error) {
	ip, port, err := resolve(addr)
	if err != nil {
		return nil, err
	}
	if !ip.IsValid() || ip.IsUnspecified() {
		if l, err := listenOn(netip.AddrPortFrom(netip.IPv6Unspecified(), port)); err == nil {
			return l, nil
		}
		ip = netip.IPv4Unspecified()
	}
	return listenOn(netip.AddrPortFrom(ip, port))
}

func listenOn(ap netip.AddrPort) (*sockListener, error) {
	fd, err := socket(ap.Addr())
	if err != nil {
		return nil, err
	}
	sa, err := bindListen(fd, ap)
	if err != nil {
		syscall.Close(fd)
		return nil, err
	}
	f := os.NewFile(uintptr(fd), "tcp-listener")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &sockListener{f: f, rc: rc, addr: addrPort(sa).String()}, nil
}

// bindListen binds fd to ap, starts listening and returns the bound address.
func bindListen(fd int, ap netip.AddrPort) (syscall.Sockaddr, error) {
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		return nil, os.NewSyscallError("setsockopt", err)
	}
	if err := syscall.Bind(fd, sockaddr(ap)); err != nil {
		return nil, os.NewSyscallError("bind", err)
	}
	if err := syscall.Listen(fd, listenBacklog); err != nil {
		return nil, os.NewSyscallError("listen", err)
	}
	sa, err := syscall.Getsockname(fd)
	return sa, os.NewSyscallError("getsockname", err)
}

type sockListener struct {
	f      *os.File
	rc     syscall.RawConn
	addr   string
	closed atomic.Bool
}

// Accept waits for the next connection. It returns os.ErrClosed once the
// listener is closed, a blocked Accept included.
func (l *sockListener) Accept() (conn, error) {
	var nfd int
	var aerr error
	err := l.rc.Read(func(fd uintptr) bool {
		for {
			nfd, _, aerr = syscall.Accept4(int(fd), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			switch aerr {
			case syscall.EINTR, syscall.ECONNABORTED:
				// The next queued connection, if any: the poller signals a
				// listener once per arrival, so waiting here could miss it.
			case syscall.EAGAIN:
				return false
			default:
				return true
			}
		}
	})
	if err == nil && aerr != nil {
		err = os.NewSyscallError("accept4", aerr)
	}
	if err != nil {
		if l.closed.Load() {
			return nil, os.ErrClosed
		}
		return nil, err
	}
	c, err := newConn(nfd)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (l *sockListener) Close() error {
	l.closed.Store(true)
	return l.f.Close()
}

func (l *sockListener) Addr() string { return l.addr }

// dial connects to addr within timeout (0: no bound). An empty host is
// 127.0.0.1.
func dial(addr string, timeout time.Duration) (conn, error) {
	ip, port, err := resolve(addr)
	if err != nil {
		return nil, err
	}
	if !ip.IsValid() {
		ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	}
	fd, err := socket(ip)
	if err != nil {
		return nil, err
	}
	f, err := newConn(fd)
	if err != nil {
		return nil, err
	}
	if err := connect(f, sockaddr(netip.AddrPortFrom(ip, port)), timeout); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// localAddr is the address c's socket is bound to (getsockname).
func localAddr(c conn) (netip.AddrPort, error) {
	f, ok := c.(*os.File)
	if !ok {
		return netip.AddrPort{}, fmt.Errorf("rpc: a %T has no socket address", c)
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return netip.AddrPort{}, err
	}
	var sa syscall.Sockaddr
	var serr error
	if err := rc.Control(func(fd uintptr) { sa, serr = syscall.Getsockname(int(fd)) }); err != nil {
		return netip.AddrPort{}, err
	}
	if serr != nil {
		return netip.AddrPort{}, os.NewSyscallError("getsockname", serr)
	}
	return addrPort(sa), nil
}

// connect connects f's socket to sa. The wait decides "connected" inside the
// RawConn.Write callback, on its first call too, as net/fd_unix.go does:
// RawConn.Write resets the poller's write readiness before that call, so a
// connect that completed before the wait began (the usual case on loopback)
// is never signalled again.
func connect(f *os.File, sa syscall.Sockaddr, timeout time.Duration) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var cerr error
	if err := rc.Control(func(fd uintptr) { cerr = syscall.Connect(int(fd), sa) }); err != nil {
		return err
	}
	switch cerr {
	case nil, syscall.EISCONN:
		return nil
	case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
	default:
		return os.NewSyscallError("connect", cerr)
	}
	if timeout > 0 {
		if err := f.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		defer f.SetWriteDeadline(time.Time{})
	}
	cerr = nil
	err = rc.Write(func(fd uintptr) bool {
		n, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		if err != nil {
			cerr = err
			return true
		}
		switch e := syscall.Errno(n); e {
		case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
			return false
		case 0, syscall.EISCONN:
			// The poller can wake spuriously: connected once the peer is known.
			_, err := syscall.Getpeername(int(fd))
			return err == nil
		default:
			cerr = e
			return true
		}
	})
	if err == nil {
		err = cerr
	}
	return os.NewSyscallError("connect", err)
}

// socket opens a non-blocking, close-on-exec TCP socket for ip's family. An
// IPv6 socket is dual-stack (IPV6_V6ONLY off), as net makes it for "tcp".
func socket(ip netip.Addr) (int, error) {
	family := syscall.AF_INET
	if ip.Is6() {
		family = syscall.AF_INET6
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, syscall.IPPROTO_TCP)
	if err != nil {
		return -1, os.NewSyscallError("socket", err)
	}
	if family == syscall.AF_INET6 {
		if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0); err != nil {
			syscall.Close(fd)
			return -1, os.NewSyscallError("setsockopt", err)
		}
	}
	return fd, nil
}

// newConn sets the options net sets on every TCP connection and hands the
// socket to the poller. TCP_NODELAY matters most: without it a small frame
// waits for the peer's delayed ACK of the previous one.
func newConn(fd int) (*os.File, error) {
	for _, o := range [...]struct{ level, opt, v int }{
		{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, keepAliveSeconds},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, keepAliveSeconds},
	} {
		if err := syscall.SetsockoptInt(fd, o.level, o.opt, o.v); err != nil {
			syscall.Close(fd)
			return nil, os.NewSyscallError("setsockopt", err)
		}
	}
	return os.NewFile(uintptr(fd), "tcp"), nil
}

func sockaddr(ap netip.AddrPort) syscall.Sockaddr {
	if ip := ap.Addr(); ip.Is4() {
		return &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ip.As4()}
	}
	return &syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ap.Addr().As16()}
}

func addrPort(sa syscall.Sockaddr) netip.AddrPort {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), uint16(sa.Port))
	}
	return netip.AddrPort{}
}

// frameWriter sends a frame's header and body with one writev when the
// connection is a socket, so the body is never copied into a frame buffer.
// Any other conn gets the header, then the body.
type frameWriter struct {
	rc    syscall.RawConn
	fn    func(fd uintptr) bool // w.writev, bound once
	parts [2][]byte
	iov   [2]syscall.Iovec
	err   error
}

func (w *frameWriter) send(c conn, hdr, body []byte) error {
	if w.rc == nil {
		f, ok := c.(*os.File)
		if !ok {
			if _, err := c.Write(hdr); err != nil || len(body) == 0 {
				return err
			}
			_, err := c.Write(body)
			return err
		}
		rc, err := f.SyscallConn()
		if err != nil {
			return err
		}
		w.rc, w.fn = rc, w.writev
	}
	w.parts, w.err = [2][]byte{hdr, body}, nil
	err := w.rc.Write(w.fn) // honours the write deadline between writevs
	// A failed write leaves the body referenced.
	w.parts, w.iov = [2][]byte{}, [2]syscall.Iovec{}
	if err != nil {
		return err
	}
	return w.err
}

// writev writes what is left of w.parts until it is gone (true), the socket
// is full (false: wait for it to drain) or the write fails (true, w.err).
func (w *frameWriter) writev(fd uintptr) bool {
	for {
		n := 0
		for _, p := range w.parts {
			if len(p) > 0 {
				w.iov[n] = syscall.Iovec{Base: &p[0]}
				w.iov[n].SetLen(len(p))
				n++
			}
		}
		if n == 0 {
			return true
		}
		m, _, e := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&w.iov[0])), uintptr(n))
		switch e {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			w.err = os.NewSyscallError("writev", e)
			return true
		}
		for i := range w.parts {
			k := min(int(m), len(w.parts[i]))
			w.parts[i], m = w.parts[i][k:], m-uintptr(k)
		}
	}
}
