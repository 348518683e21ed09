package netem

import (
	"testing"
	"time"
)

// loopback pairs two UDP transports on localhost for wrapper tests.
func loopback(t *testing.T) (*UDP, *UDP) {
	t.Helper()
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func TestUDPTransportRoundTrip(t *testing.T) {
	a, b := loopback(t)
	if err := a.Send(b.LocalAddr(), []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	p, from, err := b.Recv()
	if err != nil || string(p) != "over the wire" {
		t.Fatalf("recv = %q err %v", p, err)
	}
	if from != a.LocalAddr() {
		t.Fatalf("from = %s want %s", from, a.LocalAddr())
	}
}

func TestUDPCloseUnblocksRecv(t *testing.T) {
	a, _ := loopback(t)
	done := make(chan error, 1)
	go func() { _, _, err := a.Recv(); done <- err }()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != errClosed {
			t.Fatalf("recv after close = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestFaultLossIsSeeded(t *testing.T) {
	run := func() LinkStats {
		a, b := loopback(t)
		f := WrapFault(a, LinkParams{Loss: 0.4}, 99)
		for i := 0; i < 100; i++ {
			if err := f.Send(b.LocalAddr(), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		return f.Stats()
	}
	s1, s2 := run(), run()
	if s1.Lost != s2.Lost || s1.Lost == 0 || s1.Lost == 100 {
		t.Fatalf("fault schedule not reproducible or degenerate: %+v vs %+v", s1, s2)
	}
	// Survivors actually reach the inner transport's peer.
	if s1.Sent != 100 || s1.Delivered != 100-s1.Lost-0 {
		t.Fatalf("stats = %+v", s1)
	}
}

func TestFaultDelaysOutbound(t *testing.T) {
	a, b := loopback(t)
	f := WrapFault(a, LinkParams{Latency: 50 * time.Millisecond}, 1)
	defer f.Close()
	start := time.Now()
	if err := f.Send(b.LocalAddr(), []byte("late")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 45*time.Millisecond {
		t.Fatalf("arrived after %v; latency not applied", el)
	}
}

func TestFaultPassThroughWhenPerfect(t *testing.T) {
	a, b := loopback(t)
	f := WrapFault(a, LinkParams{}, 1)
	if err := f.Send(b.LocalAddr(), []byte("clean")); err != nil {
		t.Fatal(err)
	}
	if p, _, err := b.Recv(); err != nil || string(p) != "clean" {
		t.Fatalf("recv = %q err %v", p, err)
	}
	if f.LocalAddr() != a.LocalAddr() {
		t.Fatal("LocalAddr must pass through")
	}
}

func TestFaultCloseCancelsPending(t *testing.T) {
	a, b := loopback(t)
	f := WrapFault(a, LinkParams{Latency: 200 * time.Millisecond}, 1)
	f.Send(b.LocalAddr(), []byte("doomed"))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if err := f.Send(b.LocalAddr(), []byte("x")); err != errClosed {
		t.Fatalf("send after close = %v", err)
	}
	// The delayed packet must not arrive.
	got := make(chan struct{}, 1)
	go func() {
		if _, _, err := b.Recv(); err == nil {
			got <- struct{}{}
		}
	}()
	select {
	case <-got:
		t.Fatal("cancelled packet was delivered")
	case <-time.After(400 * time.Millisecond):
	}
}

func TestFaultSetParams(t *testing.T) {
	a, b := loopback(t)
	f := WrapFault(a, LinkParams{Loss: 1}, 1)
	defer f.Close()
	f.Send(b.LocalAddr(), []byte("x"))
	if s := f.Stats(); s.Lost != 1 {
		t.Fatalf("stats = %+v", s)
	}
	f.SetParams(LinkParams{})
	f.Send(b.LocalAddr(), []byte("y"))
	if p, _, err := b.Recv(); err != nil || string(p) != "y" {
		t.Fatalf("recv = %q err %v", p, err)
	}
}
