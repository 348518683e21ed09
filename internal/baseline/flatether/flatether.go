// Package flatether models the paper's intradomain comparison point,
// CMU-ETHERNET (Myers, Ng, Zhang: "Rethinking the service model: scaling
// ethernet to a million nodes", HotNets 2004): a flat routing scheme in
// which every host join is flooded network-wide so that *every* router
// learns a shortest-path route for *every* host.
//
// The paper references it twice (§6.2): join overhead "between 37 and
// 181 times more messages" than ROFL, and memory "from 34 to 1200 times
// more" — both consequences of the flood-everything, store-everything
// design that this package implements literally.
package flatether

import (
	"errors"
	"fmt"

	"rofl/internal/ident"
	"rofl/internal/linkstate"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// MsgJoin is the Metrics counter charged for join floods.
const MsgJoin = "flatether-join"

// errDuplicateID is returned when a host joins twice.
var errDuplicateID = errors.New("flatether: identifier already joined")

// Network is a CMU-ETHERNET-style flat routing domain.
type Network struct {
	LS      *linkstate.Map
	Metrics sim.Metrics

	// hostAt maps every host to its attachment router; conceptually this
	// table is replicated at every router, which is exactly the memory
	// cost the paper charges.
	hostAt map[ident.ID]topology.NodeID
}

// New wraps a router graph.
func New(g *topology.Graph, m sim.Metrics) *Network {
	return &Network{
		LS:      linkstate.New(g, m),
		Metrics: m,
		hostAt:  make(map[ident.ID]topology.NodeID),
	}
}

// JoinHost attaches a host: the join announcement is flooded over every
// link so each router can install a route, costing ~2·|E| messages — the
// source of the 37–181x gap to ROFL's ~4·diameter joins.
func (n *Network) JoinHost(id ident.ID, at topology.NodeID) (int, error) {
	if _, dup := n.hostAt[id]; dup {
		return 0, fmt.Errorf("%w: %s", errDuplicateID, id.Short())
	}
	n.hostAt[id] = at
	msgs := 2 * n.LS.Graph().NumEdges()
	n.Metrics.Count(MsgJoin, int64(msgs))
	return msgs, nil
}
