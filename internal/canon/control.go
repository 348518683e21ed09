package canon

import (
	"fmt"
	"math/rand"
	"slices"

	"rofl/internal/ident"
	"rofl/internal/topology"
)

// This file implements the paper's §5.1 routing-control extensions:
//
//   - endpoint-based path negotiation: "all paths that can be used to
//     reach AS X from AS Y traverse ASes in the intersection of X's and
//     Y's up-hierarchies ... we allow the source and destination to
//     negotiate a subset of ASes in this set";
//   - first-packet-only stretch: "stretch for remaining packets can be
//     reduced to one by exchanging the list of ASes above the destination
//     in the hierarchy";
//   - inbound traffic engineering by multi-suffix joins: a multihomed AS
//     "sends a join out on each of its AS's p providers with IDs with
//     variable suffixes (G, x_k)";
//   - interdomain anycast (§5.2): members join as (G, x); senders route
//     to (G, r) and deliver at the first member encountered.

// Negotiation is the outcome of an endpoint path negotiation: the AS set
// both endpoints agreed subsequent packets may traverse.
type Negotiation struct {
	Src, Dst ident.ID
	// Allowed is the negotiated AS set (the intersection of the two
	// up-hierarchies, possibly pruned by the destination's policy).
	Allowed map[topology.ASN]bool
	// FirstPacket is the cost of the greedy first packet that carried
	// the negotiation request.
	FirstPacket RouteResult
}

// Negotiate routes a first packet from src to dst greedily (paying the
// ROFL stretch once) and returns the negotiated AS set: the union of the
// two endpoints' up-hierarchies restricted to their intersection-closure
// — small enough to be "represented in just a few hundred bytes" (§5.1).
// keep, if non-nil, lets the destination prune which of its ancestors it
// reveals ("the destination selects a subset of ASes above it").
func (in *Internet) Negotiate(src, dst ident.ID, keep func(topology.ASN) bool) (Negotiation, error) {
	first, err := in.Route(src, dst)
	if err != nil {
		return Negotiation{}, fmt.Errorf("canon: negotiation first packet: %w", err)
	}
	srcAS := in.hostedAt[src]
	dstAS := in.hostedAt[dst]
	allowed := map[topology.ASN]bool{srcAS: true, dstAS: true}
	for a := range in.G.UpHierarchy(srcAS, false) {
		allowed[a] = true
	}
	for a := range in.G.UpHierarchy(dstAS, false) {
		if keep == nil || keep(a) || a == dstAS {
			allowed[a] = true
		}
	}
	return Negotiation{Src: src, Dst: dst, Allowed: allowed, FirstPacket: first}, nil
}

// RouteNegotiated forwards a subsequent packet of a negotiated session:
// a direct valley-free path constrained to the negotiated AS set, so
// stretch collapses to that of the policy path itself. Returns the AS
// path, or an error when the negotiated set no longer contains a working
// path (the session must re-negotiate).
func (in *Internet) RouteNegotiated(n Negotiation) ([]topology.ASN, error) {
	srcAS, ok := in.hostedAt[n.Src]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errUnknownID, n.Src.Short())
	}
	dstAS, ok := in.hostedAt[n.Dst]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errUnknownID, n.Dst.Short())
	}
	// Any peering link inside the negotiated set may be crossed.
	path, _ := in.policyPaths(srcAS, dstAS, dstAS,
		func(a topology.ASN) bool { return n.Allowed[a] },
		func(_, _ topology.ASN) bool { return true })
	if path == nil {
		return nil, fmt.Errorf("%w: negotiated set has no working path", ErrNoRoute)
	}
	in.Metrics.Count(msgData, int64(len(path)-1))
	return slices.Clone(path), nil
}

// SuffixJoin is the result of a traffic-engineering multi-suffix join.
type SuffixJoin struct {
	Members []ident.ID
	// ProviderOf records which access provider each suffix was pinned
	// to, giving the multihomed AS "some degree of control over incoming
	// traffic on their access links" (§2.3, §5.1).
	ProviderOf map[ident.ID]topology.ASN
	Msgs       int
}

// JoinGroupTE performs the §5.1 inbound traffic-engineering join for a
// multihomed AS: one member identifier (G, x_k) per suffix, each joined
// single-homed through a distinct provider (round-robin over the AS's
// active providers). Inbound traffic for suffix x_k enters over the
// provider its join pinned, so shifting suffixes shifts load between
// access links.
func (in *Internet) JoinGroupTE(g ident.Group, suffixes []uint32, at topology.ASN) (SuffixJoin, error) {
	provs := in.activeProviders(nil, at)
	if len(provs) == 0 {
		return SuffixJoin{}, fmt.Errorf("canon: AS %d has no active providers", at)
	}
	out := SuffixJoin{ProviderOf: make(map[ident.ID]topology.ASN)}
	for k, x := range suffixes {
		id := g.Member(x)
		prov := provs[k%len(provs)]
		res, err := in.joinVia(id, at, prov)
		if err != nil {
			return out, fmt.Errorf("canon: TE join suffix %d: %w", x, err)
		}
		out.Members = append(out.Members, id)
		out.ProviderOf[id] = prov
		out.Msgs += res.Msgs
	}
	return out, nil
}

// joinVia performs a single-homed join whose provider chain starts at
// the given provider.
func (in *Internet) joinVia(id ident.ID, at, provider topology.ASN) (JoinResult, error) {
	// Temporarily fail every other provider link so the single-homed
	// chain deterministically ascends via `provider`, then restore.
	var masked [][2]topology.ASN
	for _, p := range in.G.Providers(at) {
		if p != provider && in.linkUp(at, p) {
			in.FailASLink(at, p)
			masked = append(masked, [2]topology.ASN{at, p})
		}
	}
	res, err := in.Join(id, at, SingleHomed)
	for _, l := range masked {
		in.RestoreASLink(l[0], l[1])
	}
	return res, err
}

// RouteAnycast routes from src toward group member (G, r) with a random
// suffix, delivering at the first AS hosting any member of the group —
// §5.2's anycast: "intermediate routers forward the packet towards G,
// treating all suffixes equally."
func (in *Internet) RouteAnycast(src ident.ID, g ident.Group, rng *rand.Rand) (RouteResult, ident.ID, error) {
	srcAS, ok := in.hostedAt[src]
	if !ok {
		return RouteResult{}, ident.ID{}, fmt.Errorf("%w: %s", errUnknownID, src.Short())
	}
	// An ordinary route toward (G, r) that stops at the first AS hosting
	// any group member; of several at one AS, the smallest identifier.
	var member ident.ID
	res, err := in.route(srcAS, src, g.RandomMember(rng), func(as *AS) bool {
		for _, vn := range as.VNs {
			if ident.GroupOf(vn.ID) == g {
				member = vn.ID
				return true
			}
		}
		return false
	})
	return res, member, err
}
