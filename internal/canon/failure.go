package canon

import (
	"fmt"
	"slices"

	"rofl/internal/ident"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// This file implements interdomain failure handling (§2.3, §4.1): AS
// link failures shift traffic to surviving access links automatically
// (pointer source routes are recomputed against the live policy graph),
// and stub-AS failures tear down the dead identifiers and repair every
// ring level they had joined — the §6.3 failure experiment.

// FailASLink fails the adjacency between a and b. Multihomed ASes keep
// routing through their other providers; backup links activate when all
// primary links are down.
func (in *Internet) FailASLink(a, b topology.ASN) {
	in.failedLink[linkKey(a, b)] = true
}

// RestoreASLink restores a failed adjacency.
func (in *Internet) RestoreASLink(a, b topology.ASN) {
	delete(in.failedLink, linkKey(a, b))
}

// LinkFailed reports whether the adjacency is currently failed.
func (in *Internet) LinkFailed(a, b topology.ASN) bool {
	return in.failedLink[linkKey(a, b)]
}

// HostVirtual arranges for a provider AS to stand by as a virtual host
// for an identifier (§4.1): if the identifier's own AS fails, the
// provider takes over hosting and the identifier stays reachable. The
// standby AS must be in the identifier's current up-hierarchy.
func (in *Internet) HostVirtual(id ident.ID, provider topology.ASN) error {
	at, ok := in.hostedAt[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownID, id.Short())
	}
	if !in.G.InUpHierarchy(at, provider, true) {
		return fmt.Errorf("canon: AS %d is not a provider of %s's AS %d", provider, id.Short(), at)
	}
	in.virtualHosts[id] = provider
	return nil
}

// FailAS crashes an AS: every identifier it hosted leaves all its rings,
// with ring neighbors repaired level by level. The repair cost — charged
// to MsgRepair — "roughly corresponds to the number of identifiers
// hosted in the failed stub" (§6.3). Identifiers with a virtual-server
// arrangement (§4.1, HostVirtual) migrate to their standby provider and
// stay reachable; the rest are torn down. Returns the number of
// identifiers removed.
func (in *Internet) FailAS(a topology.ASN) int {
	if in.failedAS[a] {
		return 0
	}
	in.failedAS[a] = true
	dead := in.ases[a].VNs
	in.ases[a].VNs, in.ases[a].levelLists = nil, nil
	var migrate []*VNode
	for _, vn := range dead {
		delete(in.hostedAt, vn.ID)
		in.unlink(vn, MsgRepair)
		if standby, ok := in.virtualHosts[vn.ID]; ok && !in.failedAS[standby] {
			vn.AS = standby
			migrate = append(migrate, vn)
		}
	}
	// Caches everywhere purge pointers at the dead AS (driven by
	// reachability change).
	for _, as := range in.ases {
		as.Cache.RemoveRouter(vring.RouterID(a))
	}
	// Fingers pointing at dead identifiers are dropped lazily at use;
	// sweep them here to keep state tidy.
	in.sweepFingers(func(f Finger) bool { return f.AS == a })
	// Standby providers re-join the migrated identifiers from their own
	// position in the hierarchy.
	removed := len(dead) - len(migrate)
	for _, vn := range migrate {
		if _, err := in.Join(vn.ID, vn.AS, vn.Strategy); err != nil {
			removed++ // migration failed; the identifier is gone after all
		}
	}
	return removed
}

// Leave removes one identifier gracefully from every ring it joined.
func (in *Internet) Leave(id ident.ID) error {
	a, ok := in.hostedAt[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownID, id.Short())
	}
	host := in.ases[a]
	i := host.search(id)
	vn := host.VNs[i]
	host.VNs = slices.Delete(host.VNs, i, i+1)
	host.dropLevels(vn.levels)
	delete(in.hostedAt, id)
	in.unlink(vn, MsgTeardown)
	for _, as := range in.ases {
		as.Cache.Remove(id)
	}
	in.sweepFingers(func(f Finger) bool { return f.ID == id })
	delete(in.virtualHosts, id)
	return nil
}

// sweepFingers drops the finger entries gone reports.
func (in *Internet) sweepFingers(gone func(Finger) bool) {
	for _, as := range in.ases {
		for _, vn := range as.VNs {
			vn.Fingers = slices.DeleteFunc(vn.Fingers, gone)
		}
	}
}

// unlink removes vn from every ring it joined — which alone makes its
// neighbours there each other's successor and predecessor — and charges
// the per-level notification cost between them.
func (in *Internet) unlink(vn *VNode, counter string) {
	self := Ptr{ID: vn.ID, AS: vn.AS}
	for _, lv := range vn.levels {
		i := lv.search(vn.ID)
		if !(i < len(lv.ring) && lv.ring[i] == self) {
			continue
		}
		pred, succ := lv.neighbours(vn.ID)
		lv.ring = slices.Delete(lv.ring, i, i+1)
		if len(lv.ring) == 0 {
			continue
		}
		if h := in.hopsWithin(lv.root, pred.AS, succ.AS); h > 0 {
			in.Metrics.Count(counter, int64(h))
		} else {
			in.Metrics.Count(counter, 1)
		}
	}
}

// CheckRings verifies every AS's resident table, strictly ascending by
// identifier and hosted where the oracle says, with every node in the
// ring of every level it joined, its levels lowest first, and the AS's
// level lists exactly its residents' distinct ones, each stored once and
// shared by every resident that holds it; and, the other
// way round, every ring level: members strictly ascending, all alive,
// hosted where the oracle says, inside the level's subtree, and each a
// node that joined the level. This is the interdomain analogue of the
// paper's simulator consistency checks.
func (in *Internet) CheckRings() error {
	for _, as := range in.ases {
		for i, vn := range as.VNs {
			// A lower bound landing on each index is strict ascent.
			if as.search(vn.ID) != i {
				return fmt.Errorf("%w: AS %d residents out of order at %s", ErrRingBroken, as.ASN, vn.ID.Short())
			}
			if host, ok := in.hostedAt[vn.ID]; !ok || host != as.ASN || vn.AS != as.ASN {
				return fmt.Errorf("%w: %s resident at AS %d is not hosted there", ErrRingBroken, vn.ID.Short(), as.ASN)
			}
			for k, lv := range vn.levels {
				if i := lv.search(vn.ID); i == len(lv.ring) || lv.ring[i] != (Ptr{ID: vn.ID, AS: vn.AS}) {
					return fmt.Errorf("%w: %s joined ring %v, which does not hold it", ErrRingBroken, vn.ID.Short(), lv.root)
				}
				if k > 0 && !vn.levels[k-1].below(lv) {
					return fmt.Errorf("%w: %s lists ring %v out of order", ErrRingBroken, vn.ID.Short(), lv.root)
				}
			}
			if k := slices.IndexFunc(as.levelLists, func(l []*level) bool { return slices.Equal(l, vn.levels) }); k < 0 ||
				len(vn.levels) > 0 && &as.levelLists[k][0] != &vn.levels[0] {
				return fmt.Errorf("%w: AS %d does not share %s's level list", ErrRingBroken, as.ASN, vn.ID.Short())
			}
		}
		for k, l := range as.levelLists {
			if !slices.ContainsFunc(as.VNs, func(vn *VNode) bool { return slices.Equal(vn.levels, l) }) {
				return fmt.Errorf("%w: AS %d keeps a level list no resident joined", ErrRingBroken, as.ASN)
			}
			if slices.ContainsFunc(as.levelLists[k+1:], func(o []*level) bool { return slices.Equal(o, l) }) {
				return fmt.Errorf("%w: AS %d stores one level list twice", ErrRingBroken, as.ASN)
			}
		}
	}
	for root, lv := range in.levels {
		for i, p := range lv.ring {
			if in.failedAS[p.AS] {
				return fmt.Errorf("%w: dead AS %d still in ring %v", ErrRingBroken, p.AS, root)
			}
			if host, ok := in.hostedAt[p.ID]; !ok || host != p.AS {
				return fmt.Errorf("%w: ring %v member %s not hosted at AS %d", ErrRingBroken, root, p.ID.Short(), p.AS)
			}
			if !in.inSubtree(root, p.AS) {
				return fmt.Errorf("%w: ring %v member %s outside subtree", ErrRingBroken, root, p.ID.Short())
			}
			vn := in.ases[p.AS].Resident(p.ID)
			if vn == nil {
				return fmt.Errorf("%w: ring %v member %s missing VNode", ErrRingBroken, root, p.ID.Short())
			}
			if !slices.Contains(vn.levels, lv) {
				return fmt.Errorf("%w: ring %v holds %s, which never joined it", ErrRingBroken, root, p.ID.Short())
			}
			//rofllint:ignore identcmp asserting sorted storage, the documented Less use; the check verifies linear order on purpose
			if i > 0 && !lv.ring[i-1].ID.Less(p.ID) {
				return fmt.Errorf("%w: ring %v not sorted at %d", ErrRingBroken, root, i)
			}
		}
	}
	return nil
}

// RingSize returns the membership count of a level (0 when absent).
func (in *Internet) RingSize(r Root) int {
	if lv := in.levels[r]; lv != nil {
		return len(lv.ring)
	}
	return 0
}

// CheckIsolationState verifies the paper's isolation invariant on the
// routing state itself (§4.1: "if this table is correctly maintained,
// the isolation property is preserved"): every ring pointer at level R
// must connect two ASes inside subtree(R) — ring pointers being the
// ring's adjacent members, every member of R's ring must lie inside
// subtree(R) — and every finger must carry a root whose subtree contains
// both its owner and its target. Packets only ever follow such pointers
// along policy paths confined to the pointer's subtree, so state-level
// isolation is what bounds where traffic can go.
func (in *Internet) CheckIsolationState() error {
	for root, lv := range in.levels {
		for _, p := range lv.ring {
			if !in.inSubtree(root, p.AS) {
				return fmt.Errorf("%w: ring %v member %s at AS %d escapes the subtree",
					ErrRingBroken, root, p.ID.Short(), p.AS)
			}
		}
	}
	for _, as := range in.ases {
		for _, vn := range as.VNs {
			for _, f := range vn.Fingers {
				if !in.inSubtree(f.Root, vn.AS) || !in.inSubtree(f.Root, f.AS) {
					return fmt.Errorf("%w: finger %s→%s escapes subtree %v",
						ErrRingBroken, vn.ID.Short(), f.ID.Short(), f.Root)
				}
			}
		}
	}
	return nil
}
