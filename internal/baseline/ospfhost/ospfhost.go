// Package ospfhost is the paper's intradomain load-balance baseline
// (Fig 6b): plain shortest-path (OSPF) routing of host traffic. For each
// source/destination pair the packet follows the link-state shortest
// path; per-router traversal counts are recorded so ROFL's load can be
// ranked against them ("we plot the load at the ith most congested
// router in an OSPF network, and the load under ROFL for that same
// router", §6.2).
package ospfhost

import (
	"errors"
	"fmt"
	"sort"

	"rofl/internal/ident"
	"rofl/internal/linkstate"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// msgData is the metrics counter charged per physical hop.
const msgData = "ospfhost-data"

// errUnknownID reports a destination with no attachment point.
var errUnknownID = errors.New("ospfhost: identifier unknown")

// Network routes host traffic over shortest paths.
type Network struct {
	LS      *linkstate.Map
	Metrics sim.Metrics

	hostAt     map[ident.ID]topology.NodeID
	traversals []int64
}

// New wraps a router graph.
func New(g *topology.Graph, m sim.Metrics) *Network {
	return &Network{
		LS:         linkstate.New(g, m),
		Metrics:    m,
		hostAt:     make(map[ident.ID]topology.NodeID),
		traversals: make([]int64, g.NumNodes()),
	}
}

// Attach registers a host at a router (no protocol cost is modeled —
// OSPF does not carry host routes; this is the idealized baseline).
func (n *Network) Attach(id ident.ID, at topology.NodeID) {
	n.hostAt[id] = at
}

// Route forwards from router `from` to dst's attachment router over the
// shortest path, recording per-router traversals.
func (n *Network) Route(from topology.NodeID, dst ident.ID) (int, error) {
	at, ok := n.hostAt[dst]
	if !ok {
		return 0, fmt.Errorf("%w: %s", errUnknownID, dst.Short())
	}
	path := n.LS.Path(from, at)
	if path == nil {
		return 0, fmt.Errorf("ospfhost: %s unreachable", dst.Short())
	}
	for _, node := range path[1:] {
		n.traversals[node]++
	}
	h := len(path) - 1
	n.Metrics.Count(msgData, int64(h))
	return h, nil
}

// Traversals returns per-router transit counts.
func (n *Network) Traversals() []int64 { return n.traversals }

// RankByLoad returns router ids sorted by descending traversal count —
// the x-axis ordering of Fig 6b.
func (n *Network) RankByLoad() []topology.NodeID {
	order := make([]topology.NodeID, len(n.traversals))
	for i := range order {
		order[i] = topology.NodeID(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return n.traversals[order[a]] > n.traversals[order[b]]
	})
	return order
}
