package canon

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"rofl/internal/ident"
	"rofl/internal/topology"
)

// Errors returned by Internet operations.
var (
	errDuplicateID = errors.New("canon: identifier already joined")
	errUnknownID   = errors.New("canon: identifier not joined")
	errASDown      = errors.New("canon: AS is down")
	ErrNoRoute     = errors.New("canon: no policy-compliant route")
	errTTL         = errors.New("canon: TTL exceeded")
	errRingBroken  = errors.New("canon: ring invariant violated")
)

// JoinResult reports the cost of one interdomain join — the Fig 8a
// metric.
type JoinResult struct {
	VN     *VNode
	Msgs   int
	Levels int // ring levels actually joined
}

// rootsFor computes the ring levels a join covers under the given
// strategy (§4.2). Ephemeral hosts join only the global ring; a
// single-homed join walks one provider chain; a recursively multihomed
// join covers every AS in the up-hierarchy; a peering join additionally
// joins the virtual AS of every peering link adjacent to the
// up-hierarchy — unless Bloom peering is enabled, which replaces those
// joins with data-path filter checks ("using the bloom filter
// optimization reduced the overhead of the peering join to be equal to
// the overhead of the recursively multihomed join", §6.3).
func (in *Internet) rootsFor(x topology.ASN, s Strategy) []Root {
	switch s {
	case Ephemeral:
		return []Root{top}
	case SingleHomed:
		roots := []Root{asRoot(x)}
		cur := x
		for in.G.Tier(cur) != 1 {
			provs := in.activeProviders(nil, cur)
			if len(provs) == 0 {
				break
			}
			cur = provs[0]
			roots = append(roots, asRoot(cur))
		}
		return append(roots, top)
	case Multihomed, Peering:
		var roots []Root // UpHierarchyLevels lists each AS once
		for _, level := range in.G.UpHierarchyLevels(x, false) {
			for _, a := range level {
				roots = append(roots, asRoot(a))
				if s != Peering || in.opts.BloomPeering || in.G.Tier(a) == 1 {
					continue
				}
				// Virtual ASes for peering links adjacent to the
				// up-hierarchy (Fig 4a). The tier-1 clique is covered by
				// the single Top virtual AS, so only lower peerings get
				// their own.
				for _, q := range in.G.Peers(a) {
					if r := peerRoot(a, q); in.G.Tier(q) != 1 && !slices.Contains(roots, r) {
						roots = append(roots, r)
					}
				}
			}
		}
		return append(roots, top)
	default:
		return []Root{top}
	}
}

// joinKey names one AS's level list under one strategy.
type joinKey struct {
	as topology.ASN
	s  Strategy
}

// joinLevels returns the levels a join at x under s covers, lowest first
// as the bottom-up merge joins them, clipped: residents share the list.
// Only a SingleHomed join's follow the live graph (the provider chain it
// climbs); the others' are fixed at New, so each AS computes them once.
func (in *Internet) joinLevels(x topology.ASN, s Strategy) []*level {
	if levels, ok := in.joinLists[joinKey{x, s}]; ok {
		return levels
	}
	var levels []*level
	for _, root := range in.rootsFor(x, s) {
		levels = append(levels, in.level(root))
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i].below(levels[j]) })
	if levels = slices.Clip(levels); s != SingleHomed {
		in.joinLists[joinKey{x, s}] = levels
	}
	return levels
}

// Join splices id into the rings selected by the strategy, discovering a
// predecessor and successor at each level (join_external, Algorithm 3),
// acquires proximity fingers up to the configured budget, and updates
// the Bloom filters of every ancestor. Redundant per-level lookups that
// resolve to an already-discovered successor are collapsed to a single
// confirmation message — the optimization the paper uses to keep
// multihomed joins close to single-homed cost (§6.3).
func (in *Internet) Join(id ident.ID, at topology.ASN, s Strategy) (JoinResult, error) {
	if in.failedAS[at] {
		return JoinResult{}, errASDown
	}
	if _, dup := in.hostedAt[id]; dup {
		return JoinResult{}, fmt.Errorf("%w: %s", errDuplicateID, id.Short())
	}
	as := in.ases[at]
	vn := &VNode{ID: id, AS: at, Strategy: s, levels: as.shareLevels(in.joinLevels(at, s))}
	msgs := 0
	// The successors found so far, one a level at most: a few IDs, held
	// on the stack while the join has no more levels than this holds.
	var seenBuf [16]ident.ID
	seenSuccs := seenBuf[:0]
	self := Ptr{ID: id, AS: at}
	for _, lv := range vn.levels {
		i := lv.ring.Floor(id) + 1 // id's place: after every member below it
		// Message accounting: route to the predecessor within this
		// level's subtree and back, then notify the successor and get an
		// ack. A lookup resolving to an already-seen successor is
		// eliminated after a single confirmation (2 messages). The first
		// member of a level has nobody to tell.
		if n := lv.ring.Len(); n > 0 {
			pred, succ := lv.at((i+n-1)%n), lv.at(i%n)
			if slices.Contains(seenSuccs, succ.ID) {
				msgs += 2
			} else {
				predPath, succPath := in.pathsWithin(lv.root, at, pred.AS, succ.AS)
				for _, path := range [2][]topology.ASN{predPath, succPath} {
					if len(path) > 1 {
						msgs += 2 * (len(path) - 1)
						in.cacheAlong(path, self)
					}
				}
				seenSuccs = append(seenSuccs, succ.ID)
			}
		}
		// Taking its sorted place in the ring is the whole splice.
		lv.ring.Insert(i, id, at)
	}

	as.VNs = slices.Insert(as.VNs, as.search(id), vn)
	in.hostedAt[id] = at

	// Ancestor Bloom filters learn the new identifier (§4.1: "these
	// bloom filters are also updated during the join process").
	if as.Bloom != nil {
		for a := range in.G.UpHierarchy(at, false) {
			if f := in.ases[a].Bloom; f != nil {
				f.Add(id[:])
			}
		}
	}

	// Proximity fingers (§4.1): one acquisition message per entry, which
	// reproduces the paper's join-overhead-vs-finger-count tradeoff
	// (~445 messages for 340 fingers, §6.4).
	if in.opts.FingerBudget > 0 {
		vn.Fingers = in.acquireFingers(vn, in.opts.FingerBudget)
		msgs += len(vn.Fingers)
		// The join "also record[s] a list of IDs that need to insert J"
		// and multicasts the new identifier to them (§4.1): existing
		// nodes adopt the newcomer where it fills or improves a slot.
		msgs += in.backInsertFinger(vn)
	}

	in.Metrics.Count(msgJoin, int64(msgs))
	in.Metrics.Sample(SampleJoinMsgs, float64(msgs))
	return JoinResult{VN: vn, Msgs: msgs, Levels: len(vn.levels)}, nil
}

// cacheAlong deposits a pointer in the caches of every AS a control
// message traverses.
func (in *Internet) cacheAlong(path []topology.ASN, p Ptr) {
	if in.opts.CacheCapacity <= 0 {
		return
	}
	for _, a := range path {
		if a != p.AS {
			in.ases[a].Cache.Insert(cachePointer(p))
		}
	}
}

// vnOf resolves a joined identifier to its VNode.
func (in *Internet) vnOf(id ident.ID) *VNode {
	a, ok := in.hostedAt[id]
	if !ok {
		return nil
	}
	return in.ases[a].Resident(id)
}

// acquireFingers fills a Pastry-style prefix table: slot (row, col)
// wants an identifier sharing `row` leading digits with vn.ID and having
// digit `col` next. Among matching identifiers the entry "resides in the
// lower-most level of the hierarchy (relative to X)" — we pick the
// candidate whose lowest joined root containing vn's AS has the smallest
// subtree, breaking ties by policy-path proximity (§4.1). Rows are
// filled in order until the budget runs out.
func (in *Internet) acquireFingers(vn *VNode, budget int) []Finger {
	type slot struct{ row, col int }
	best := make(map[slot]Finger)
	bestKey := make(map[slot][2]int) // (subtree size, path hops)
	for id, hostAS := range in.hostedAt {
		if id == vn.ID {
			continue
		}
		row := ident.CommonPrefixLen(vn.ID, id) / ident.DigitBits
		if row >= ident.Digits {
			continue
		}
		col := id.Digit(row)
		k := slot{row, col}
		other := in.vnOf(id)
		if other == nil {
			continue
		}
		root, ok := in.lowestCommonRoot(other, vn.AS)
		if !ok {
			continue
		}
		hops := in.hopsWithin(root, vn.AS, hostAS)
		if hops < 0 {
			continue
		}
		key := [2]int{in.level(root).size, hops}
		if in.opts.RandomFingers {
			// Ablation: ignore proximity and level, keep the smallest
			// identifier per slot (deterministic but arbitrary).
			key = [2]int{0, 0}
		}
		cur, exists := bestKey[k]
		// Ties break on identifier so the result is independent of map
		// iteration order. Any total order works; linear ID order is the
		// one both sides of the protocol use.
		better := !exists || key[0] < cur[0] ||
			(key[0] == cur[0] && key[1] < cur[1]) ||
			(key == cur && id.Less(best[k].ID))
		if better {
			bestKey[k] = key
			best[k] = Finger{Ptr: Ptr{ID: id, AS: hostAS}, Root: root}
		}
	}
	// Fill row-major until the budget is exhausted.
	keys := make([]slot, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].row != keys[j].row {
			return keys[i].row < keys[j].row
		}
		return keys[i].col < keys[j].col
	})
	out := make([]Finger, 0, budget)
	for _, k := range keys {
		if len(out) >= budget {
			break
		}
		out = append(out, best[k])
	}
	return out
}

// backInsertFinger offers a newly joined identifier to every existing
// node's finger table, filling empty slots and replacing entries the
// newcomer beats on (level, proximity). Returns the number of insertion
// messages charged (one per table updated).
func (in *Internet) backInsertFinger(newVN *VNode) int {
	budget := in.opts.FingerBudget
	maxRows := (budget + 14) / 15 // 15 foreign columns per 4-bit digit row
	msgs := 0
	for _, as := range in.ases {
		for _, vn := range as.VNs {
			if vn == newVN || len(vn.Fingers) == 0 && budget == 0 {
				continue
			}
			row := ident.CommonPrefixLen(vn.ID, newVN.ID) / ident.DigitBits
			if row >= ident.Digits || row >= maxRows {
				continue
			}
			col := newVN.ID.Digit(row)
			root, ok := in.lowestCommonRoot(newVN, vn.AS)
			if !ok {
				continue
			}
			hops := in.hopsWithin(root, vn.AS, newVN.AS)
			if hops < 0 {
				continue
			}
			// Find the existing entry in the same slot, if any.
			slotIdx := -1
			for i, f := range vn.Fingers {
				r := ident.CommonPrefixLen(vn.ID, f.ID) / ident.DigitBits
				if r == row && f.ID.Digit(r) == col {
					slotIdx = i
					break
				}
			}
			cand := Finger{Ptr: Ptr{ID: newVN.ID, AS: newVN.AS}, Root: root}
			switch {
			case slotIdx == -1 && len(vn.Fingers) < budget:
				vn.Fingers = append(vn.Fingers, cand)
				msgs++
			case slotIdx >= 0:
				old := vn.Fingers[slotIdx]
				oldSize := int(^uint(0) >> 1)
				oldHops := oldSize
				if ovn := in.vnOf(old.ID); ovn != nil {
					if oldRoot, okOld := in.lowestCommonRoot(ovn, vn.AS); okOld {
						oldSize = in.level(oldRoot).size
						if h := in.hopsWithin(oldRoot, vn.AS, old.AS); h >= 0 {
							oldHops = h
						}
					}
				}
				newSize := in.level(root).size
				if newSize < oldSize || (newSize == oldSize && hops < oldHops) {
					vn.Fingers[slotIdx] = cand
					msgs++
				}
			}
		}
	}
	return msgs
}

// lowestCommonRoot returns the smallest-subtree root that `other` joined
// and whose subtree contains fromAS — the level a pointer to `other` is
// usable at without violating isolation.
func (in *Internet) lowestCommonRoot(other *VNode, fromAS topology.ASN) (Root, bool) {
	if other == nil {
		return Root{}, false
	}
	for _, lv := range other.levels {
		if in.inSubtree(lv.root, fromAS) {
			return lv.root, true
		}
	}
	return Root{}, false
}
