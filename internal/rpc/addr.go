package rpc

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// AddrError reports a listen or dial address the TCP transport refuses. The
// transport resolves no names: a host is an IPv4 literal, a bracketed IPv6
// literal, localhost, or empty, and anything else is refused here, before
// any lookup.
type AddrError struct {
	// Addr is the address as given.
	Addr string
	// Reason says what is wrong with it.
	Reason string
}

func (e *AddrError) Error() string {
	return fmt.Sprintf("rpc: address %q: %s", e.Addr, e.Reason)
}

// resolve splits addr ("host:port") into an IP and a port. An empty host
// gives the zero Addr: a listener binds every interface, a dial reaches this
// machine. localhost is 127.0.0.1, and an IPv4-mapped IPv6 literal is its
// IPv4 address.
func resolve(addr string) (netip.Addr, uint16, error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return netip.Addr{}, 0, &AddrError{addr, "missing port"}
	}
	host, ps := addr[:i], addr[i+1:]
	port, err := strconv.ParseUint(ps, 10, 16)
	if err != nil {
		return netip.Addr{}, 0, &AddrError{addr, "port is not a number in [0, 65535]"}
	}
	bracketed := len(host) >= 2 && host[0] == '[' && host[len(host)-1] == ']'
	if bracketed {
		host = host[1 : len(host)-1]
	} else if host == "" {
		return netip.Addr{}, uint16(port), nil
	} else if host == "localhost" {
		return netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(port), nil
	}
	ip, err := netip.ParseAddr(host)
	switch {
	case err != nil:
		return netip.Addr{}, 0, &AddrError{addr, "host is neither an IP literal nor localhost (names are not resolved)"}
	case ip.Zone() != "":
		return netip.Addr{}, 0, &AddrError{addr, "IPv6 zones are not supported"}
	case ip.Is6() && !bracketed:
		return netip.Addr{}, 0, &AddrError{addr, "an IPv6 literal must be in brackets"}
	}
	return ip.Unmap(), uint16(port), nil
}
