package netem

import (
	"net"
	"strconv"
	"testing"
)

// TestUDPSendRecvAllocs pins the live path's per-datagram cost on a real
// loopback pair: Send parses the IP-literal address without allocating,
// and RecvInto allocates only the sender string.
func TestUDPSendRecvAllocs(t *testing.T) {
	a, b := loopback(t)
	to, buf := b.LocalAddr(), make([]byte, 2048)
	p := []byte("0123456789abcdef0123456789abcdef")
	if err := a.Send(to, p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RecvInto(buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := a.Send(to, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Send allocates %.1f per datagram, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := a.Send(to, p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.RecvInto(buf); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Send+RecvInto allocates %.1f per datagram, want at most 1", n)
	}
}

// TestUDPFromMatchesUDPAddrString: a socket bound to ":0" is dual-stack
// where the host has IPv6, and sees an IPv4 peer 4-in-6 mapped. The
// sender RecvInto reports must be the string UDPAddr.String gives for
// the same datagram, which is the peer's own LocalAddr.
func TestUDPFromMatchesUDPAddrString(t *testing.T) {
	a, err := ListenUDP(":0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	_, b := loopback(t)
	to := "127.0.0.1:" + strconv.Itoa(a.conn.LocalAddr().(*net.UDPAddr).Port)
	for i := 0; i < 2; i++ {
		if err := b.Send(to, []byte("hello")); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64)
	_, from, err := a.RecvInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	_, old, err := a.conn.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if from != old.String() || from != b.LocalAddr() {
		t.Fatalf("from = %q, UDPAddr.String() = %q, sender's LocalAddr = %q", from, old.String(), b.LocalAddr())
	}
}

// TestUDPSendResolvesHostNames: an address that is not an IP literal
// still goes through the resolver.
func TestUDPSendResolvesHostNames(t *testing.T) {
	a, b := loopback(t)
	port := strconv.Itoa(b.conn.LocalAddr().(*net.UDPAddr).Port)
	if err := a.Send("localhost:"+port, []byte("by name")); err != nil {
		t.Fatal(err)
	}
	p, from, err := b.Recv()
	if err != nil || string(p) != "by name" || from != a.LocalAddr() {
		t.Fatalf("recv = %q from %q err %v, want %q from %q", p, from, err, "by name", a.LocalAddr())
	}
}
