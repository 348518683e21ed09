package rofl_test

import (
	"fmt"
	"time"

	"rofl"
)

// ExampleNewNetwork shows the minimal intradomain flow: build an ISP,
// join a host by flat label, route to it from another router.
func ExampleNewNetwork() {
	isp := rofl.GenISP(rofl.ISPConfig{
		Name: "example", Routers: 30, PoPs: 5, BackbonePerPoP: 2, PoPDegree: 2,
		IntraPoPDelay: 0.5, InterPoPDelay: 4, Hosts: 60, ZipfS: 1.2, Seed: 1,
	})
	net := rofl.NewNetwork(isp.Graph, rofl.NewMetrics(), rofl.DefaultNetworkOptions())

	id := rofl.IDFromString("example-server")
	if _, err := net.JoinHost(id, isp.Access[0]); err != nil {
		fmt.Println("join failed:", err)
		return
	}
	res, err := net.Route(isp.Access[10], id)
	if err != nil {
		fmt.Println("route failed:", err)
		return
	}
	fmt.Println("delivered:", res.Delivered)
	// Output: delivered: true
}

// ExampleNewInternet shows interdomain joins with the isolation
// property: two hosts under the same provider route without touching the
// rest of the hierarchy.
func ExampleNewInternet() {
	// The paper's Figure 3 hierarchy: 1 on top, 2 and 3 below it, 4 and 5
	// below 2.
	g := rofl.GenAS(rofl.ASGenConfig{
		Tier1: 1, Tier2: 2, Stubs: 2,
		Hosts: 100, ZipfS: 1.1, PeerProb: 0, BackupProb: 0, Seed: 3,
	})
	in := rofl.NewInternet(g, rofl.NewMetrics(), rofl.DefaultInternetOptions())

	stubs := g.Stubs()
	a := rofl.IDFromString("host-a")
	b := rofl.IDFromString("host-b")
	if _, err := in.Join(a, stubs[0], rofl.Multihomed); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := in.Join(b, stubs[1], rofl.Multihomed); err != nil {
		fmt.Println(err)
		return
	}
	res, err := in.Route(a, b)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("delivered:", res.Delivered)
	// Output: delivered: true
}

// ExampleNewOverlayNode shows the live overlay: real UDP nodes built
// from a NodeConfig, a bootstrap plus one join, then a payload routed
// by flat label. The zero NodeConfig is usable as-is (random loopback
// port, maintenance off — right for tests and examples);
// DefaultNodeConfig additionally turns on periodic stabilization and
// BFD liveness for long-running nodes.
func ExampleNewOverlayNode() {
	a, err := rofl.NewOverlayNode(rofl.IDFromString("node-a"), rofl.NodeConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer a.Close()
	a.Bootstrap()

	b, err := rofl.NewOverlayNode(rofl.IDFromString("node-b"), rofl.NodeConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer b.Close()
	if err := b.Join(a.Addr(), 2*time.Second); err != nil {
		fmt.Println(err)
		return
	}

	if err := a.Send(b.ID(), []byte("ping")); err != nil {
		fmt.Println(err)
		return
	}
	d := <-b.Deliveries()
	fmt.Println("delivered:", string(d.Payload))
	// Output: delivered: ping
}

// ExampleGroupFromString shows anycast group labels: members share a
// prefix and differ only in the suffix.
func ExampleGroupFromString() {
	g := rofl.GroupFromString("dns")
	m1 := g.Member(1)
	m2 := g.Member(2)
	fmt.Println(m1 == m2)
	fmt.Println(m1.String()[:24] == m2.String()[:24]) // shared 96-bit prefix
	// Output:
	// false
	// true
}

// ExampleIDFromBytes derives a label by hashing bytes and round-trips
// its 32-hex-digit text through ParseID.
func ExampleIDFromBytes() {
	id := rofl.IDFromBytes([]byte{1, 2, 3})
	fmt.Println(id)
	parsed, err := rofl.ParseID(id.String())
	fmt.Println(parsed == id, err)
	_, err = rofl.ParseID("not-hex")
	fmt.Println(err != nil)
	// Output:
	// 039058c6f2c0cb492c533b0a4d14ef77
	// true <nil>
	// true
}

// ExampleGrantCapability shows the §5.3 capability flow: the destination
// signs an authorization that any verifier can check against the
// destination's label alone.
func ExampleGrantCapability() {
	dst, err := rofl.NewIdentity(zeroReader{})
	if err != nil {
		fmt.Println(err)
		return
	}
	src := rofl.IDFromString("client")
	cap := rofl.GrantCapability(dst, src, 1000)
	fmt.Println("valid at t=500:", cap.Verify(src, dst.ID(), 500) == nil)
	fmt.Println("valid at t=1500:", cap.Verify(src, dst.ID(), 1500) == nil)
	// Output:
	// valid at t=500: true
	// valid at t=1500: false
}

// zeroReader is a deterministic entropy source for the example.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(i)
	}
	return len(p), nil
}
