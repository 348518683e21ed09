package netem

import (
	"fmt"
	"net"
	"net/netip"
)

// UDP is the real-network Transport: a thin wrapper over one UDP socket
// used for both sending and receiving, so the local address peers reply
// to is the listening address.
type UDP struct {
	conn *net.UDPConn
}

// ListenUDP binds a UDP transport ("127.0.0.1:0" picks a free port).
func ListenUDP(bind string) (*UDP, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("netem: resolving %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netem: listening on %q: %w", bind, err)
	}
	return &UDP{conn: conn}, nil
}

// LocalAddr returns the bound host:port.
func (u *UDP) LocalAddr() string { return u.conn.LocalAddr().String() }

// Send transmits one datagram to addr. An IP literal is parsed without
// allocating; a name such as "localhost:7000" goes to the resolver.
func (u *UDP) Send(addr string, p []byte) error {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		udp, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("netem: resolving %q: %w", addr, err)
		}
		ap = udp.AddrPort()
	}
	if _, err := u.conn.WriteToUDPAddrPort(p, unmapped(ap)); err != nil {
		return fmt.Errorf("netem: sending to %s: %w", addr, err)
	}
	return nil
}

// unmapped turns 4-in-6 into plain IPv4: both socket families accept
// it, and it renders as UDPAddr.String does ("127.0.0.1:7000").
func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Recv blocks for one datagram; it returns ErrClosed once the socket is
// closed.
func (u *UDP) Recv() ([]byte, string, error) {
	buf := make([]byte, 64*1024)
	n, from, err := u.RecvInto(buf)
	if err != nil {
		return nil, "", err
	}
	return buf[:n:n], from, nil
}

// RecvInto implements BufferedTransport: the datagram lands in the
// caller's buffer, so a receive loop that reuses one buffer takes no
// per-packet allocation from the socket read (rendering `from` is one).
func (u *UDP) RecvInto(buf []byte) (int, string, error) {
	n, from, err := u.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		return 0, "", ErrClosed
	}
	return n, unmapped(from).String(), nil // a dual-stack socket maps IPv4 peers
}

// Close shuts the socket down, unblocking Recv.
func (u *UDP) Close() error { return u.conn.Close() }
