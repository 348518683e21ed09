// Package composite assembles ROFL's full two-level system exactly as
// Algorithm 1 of the paper integrates it: every AS runs the intradomain
// virtual-ring protocol (package vring) over its own router topology,
// designated border routers connect it to the Canon-merged interdomain
// layer (package canon), and a host join is one operation — the hosting
// router authenticates the host, joins the internal ring, then selects
// border routers and forwards join_external up the provider hierarchy
// (join_internal lines 8–13).
//
// Routing composes the same way: traffic between hosts of one AS never
// touches the interdomain layer (the isolation corollary, §2.3 "traffic
// internal to an AS stays internal"); cross-AS traffic travels
// intradomain to an egress border router, interdomain across the policy
// hierarchy, and intradomain again from the ingress border router to the
// destination's hosting router.
//
// Border routers "flood their existence internally" so interior routers
// can reach the next-hop AS (§4.1, Integrating EGP and IGP routing);
// that flood is charged at setup.
package composite

import (
	"errors"
	"fmt"

	"rofl/internal/canon"
	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// Metrics counter names charged by this package.
const (
	// msgBorderFlood is the §4.1 internal flood announcing border
	// routers.
	msgBorderFlood = "composite-border-flood"
)

// Errors returned by Global operations.
var (
	errUnknownAS   = errors.New("composite: AS not part of this system")
	errUnknownHost = errors.New("composite: host not joined")
	errNoBorder    = errors.New("composite: AS has no border routers")
)

// bordersPerAS is how many backbone routers act as border routers in
// each AS.
const bordersPerAS = 2

// ispTemplate shapes each AS's internal topology at laptop scale; Name
// and Seed are set per AS.
var ispTemplate = topology.ISPConfig{
	Routers: 24, PoPs: 4, BackbonePerPoP: 2, PoPDegree: 2,
	IntraPoPDelay: 0.5, InterPoPDelay: 4, Hosts: 50, ZipfS: 1.2,
}

// seed is the base of every AS's ISP topology seed.
const seed = 1

// Domain is one AS's intradomain slice of the composite system.
type Domain struct {
	ASN     topology.ASN
	ISP     *topology.ISP
	Net     *vring.Network
	Borders []vring.RouterID
}

// Global is the assembled two-level system.
type Global struct {
	ASGraph *topology.ASGraph
	Inter   *canon.Internet
	Metrics sim.Metrics

	domains map[topology.ASN]*Domain
	hostAS  map[ident.ID]topology.ASN
}

// New builds the composite system over an annotated AS graph,
// instantiating an internal router topology, a virtual-ring network and
// border routers for every AS that hosts identifiers (plus every transit
// AS, which needs border routers to relay). The border-router existence
// flood inside each AS is charged to msgBorderFlood. Both layers run at
// their packages' defaults (vring.DefaultOptions, canon.DefaultOptions).
func New(g *topology.ASGraph, m sim.Metrics) *Global {
	gl := &Global{
		ASGraph: g,
		Inter:   canon.New(g, m, canon.DefaultOptions()),
		Metrics: m,
		domains: make(map[topology.ASN]*Domain),
		hostAS:  make(map[ident.ID]topology.ASN),
	}
	for a := 0; a < g.NumASes(); a++ {
		asn := topology.ASN(a)
		cfg := ispTemplate
		cfg.Name = fmt.Sprintf("AS%d", a)
		cfg.Seed = seed + int64(a)*7919
		isp := topology.GenISP(cfg)
		net := vring.New(isp.Graph, m, vring.DefaultOptions())
		d := &Domain{ASN: asn, ISP: isp, Net: net}
		// Border routers: the first backbone routers, deterministic.
		nb := min(bordersPerAS, len(isp.Backbone))
		d.Borders = append(d.Borders, isp.Backbone[:nb]...)
		// §4.1: "we have border routers flood their existence
		// internally" — one flood per border router.
		m.Count(msgBorderFlood, int64(2*isp.Graph.NumEdges()*nb))
		gl.domains[asn] = d
	}
	return gl
}

// Domain returns one AS's intradomain slice.
func (g *Global) Domain(a topology.ASN) (*Domain, bool) {
	d, ok := g.domains[a]
	return d, ok
}

// nearestBorder returns the border router closest (by hops) to `from`.
func (d *Domain) nearestBorder(from vring.RouterID) (vring.RouterID, int, error) {
	best := vring.RouterID(-1)
	bestH := -1
	for _, b := range d.Borders {
		h := d.Net.LS.Hops(from, b)
		if h < 0 {
			continue
		}
		if bestH == -1 || h < bestH {
			best, bestH = b, h
		}
	}
	if bestH == -1 {
		return 0, 0, errNoBorder
	}
	return best, bestH, nil
}

// JoinResult reports the two-level cost of one host join.
type JoinResult struct {
	IntraMsgs  int // internal-ring splice + border relay
	InterMsgs  int // Canon per-level joins
	Router     vring.RouterID
	BorderUsed vring.RouterID
}

// JoinHost performs the paper's complete join_internal (Algorithm 1):
// the host joins its AS's internal ring at the given access router, the
// hosting router relays the external join to a border router, and the
// border router runs join_external across the up-hierarchy with the
// chosen strategy.
func (g *Global) JoinHost(id ident.ID, as topology.ASN, at vring.RouterID, s canon.Strategy) (JoinResult, error) {
	d, ok := g.domains[as]
	if !ok {
		return JoinResult{}, fmt.Errorf("%w: %d", errUnknownAS, as)
	}
	intra, err := d.Net.JoinHost(id, at)
	if err != nil {
		return JoinResult{}, fmt.Errorf("composite: internal join: %w", err)
	}
	// Relay the external join to the nearest border router and back
	// (join_internal lines 8-13: locate_border_router + join_external).
	border, relay, err := d.nearestBorder(at)
	if err != nil {
		return JoinResult{}, err
	}
	inter, err := g.Inter.Join(id, as, s)
	if err != nil {
		// Roll back the internal join so the two layers stay consistent.
		_ = d.Net.LeaveHost(id)
		return JoinResult{}, fmt.Errorf("composite: external join: %w", err)
	}
	g.Metrics.Count(vring.MsgJoin, int64(2*relay))
	g.hostAS[id] = as
	return JoinResult{
		IntraMsgs:  intra.Msgs + 2*relay,
		InterMsgs:  inter.Msgs,
		Router:     at,
		BorderUsed: border,
	}, nil
}

// RouteResult reports a composite route: the intradomain legs in the
// source and destination ASes, the interdomain AS-level path, and
// whether the packet ever left the source AS.
type RouteResult struct {
	Delivered  bool
	IntraHops  int // source-AS + destination-AS router hops
	InterHops  int // AS-level hops
	ASPath     []topology.ASN
	StayedHome bool // intra-AS traffic never touched the interdomain layer
}

// Route forwards a packet from a router in the source host's AS to the
// destination identifier. Intra-AS destinations are resolved entirely by
// the internal ring — the isolation corollary; cross-AS destinations
// travel access-router → egress border → interdomain → ingress border →
// hosting router.
func (g *Global) Route(src ident.ID, dst ident.ID) (RouteResult, error) {
	srcAS, ok := g.hostAS[src]
	if !ok {
		return RouteResult{}, fmt.Errorf("%w: %s", errUnknownHost, src.Short())
	}
	dstAS, ok := g.hostAS[dst]
	if !ok {
		return RouteResult{}, fmt.Errorf("%w: %s", errUnknownHost, dst.Short())
	}
	sd := g.domains[srcAS]
	srcRouter, _ := sd.Net.HostingRouter(src)

	if srcAS == dstAS {
		res, err := sd.Net.Route(srcRouter, dst)
		if err != nil {
			return RouteResult{}, err
		}
		return RouteResult{
			Delivered:  res.Delivered,
			IntraHops:  res.Hops,
			ASPath:     []topology.ASN{srcAS},
			StayedHome: true,
		}, nil
	}

	// Egress: intradomain to the nearest border router.
	_, egressHops, err := sd.nearestBorder(srcRouter)
	if err != nil {
		return RouteResult{}, err
	}

	// Interdomain: greedy over the Canon rings.
	inter, err := g.Inter.Route(src, dst)
	if err != nil {
		return RouteResult{}, fmt.Errorf("composite: interdomain leg: %w", err)
	}

	// Ingress: from a border router of the destination AS to the hosting
	// router, over the destination AS's internal ring.
	dd := g.domains[dstAS]
	if len(dd.Borders) == 0 {
		return RouteResult{}, errNoBorder
	}
	last, err := dd.Net.Route(dd.Borders[0], dst)
	if err != nil {
		return RouteResult{}, fmt.Errorf("composite: ingress leg: %w", err)
	}
	return RouteResult{
		Delivered: last.Delivered,
		IntraHops: egressHops + last.Hops,
		InterHops: inter.ASHops,
		ASPath:    inter.Traversed,
	}, nil
}

// CheckAll verifies every layer's invariants: each AS's internal ring
// and the interdomain rings plus state-level isolation.
func (g *Global) CheckAll() error {
	for a, d := range g.domains {
		if err := d.Net.CheckRing(); err != nil {
			return fmt.Errorf("composite: AS %d internal ring: %w", a, err)
		}
	}
	if err := g.Inter.CheckRings(); err != nil {
		return err
	}
	return g.Inter.CheckIsolationState()
}
