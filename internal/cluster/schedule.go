// Package cluster runs and observes many in-process overlay nodes: a
// supervisor launches N nodes on auto-allocated local ports, wires each
// one's counters into its own telemetry registry behind an HTTP
// endpoint, and drives seed-reproducible churn — kill and restart
// events drawn from a pure schedule — while a deterministic journal
// records every action for byte-identical replay comparison.
package cluster

import (
	"fmt"
	"math/rand"
)

// EventKind discriminates churn actions.
type EventKind uint8

const (
	// kindKill terminates a live node abruptly (no teardown message —
	// the failure detectors must notice on their own).
	kindKill EventKind = iota + 1
	// kindRestart brings a previously killed node back with the same
	// identifier on a fresh port, rejoining through a live member.
	kindRestart
)

// String names the action.
func (k EventKind) String() string {
	switch k {
	case kindKill:
		return "kill"
	case kindRestart:
		return "restart"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one churn action in a schedule.
type Event struct {
	// Step is the event's position in the schedule.
	Step int
	// Kind is the action.
	Kind EventKind
	// Node is the target's index in the supervisor's member list.
	Node int
}

// String renders the event the way the journal records it.
func (e Event) String() string {
	return fmt.Sprintf("step %d: %s node %d", e.Step, e.Kind, e.Node)
}

// Schedule derives a churn schedule of exactly steps events for an
// n-node cluster from seed. It is a pure function — same inputs, same
// schedule, no clock, no global randomness — and maintains two
// invariants the supervisor relies on: only live nodes are killed, only
// dead nodes are restarted, and at least half the cluster (rounded up)
// stays alive at every step so the surviving ring always has a quorum
// to reconverge around.
func Schedule(seed int64, n, steps int) []Event {
	if n < 2 || steps <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	liveCount := n
	minLive := (n + 1) / 2

	pick := func(want bool) int {
		// Choose uniformly among indices whose liveness matches want,
		// scanning in index order so the draw is order-deterministic.
		count := 0
		for _, l := range live {
			if l == want {
				count++
			}
		}
		k := rng.Intn(count)
		for i, l := range live {
			if l == want {
				if k == 0 {
					return i
				}
				k--
			}
		}
		panic("cluster: schedule bookkeeping out of sync")
	}

	events := make([]Event, 0, steps)
	for step := 0; step < steps; step++ {
		canKill := liveCount > minLive
		canRestart := liveCount < n
		kill := canKill
		if canKill && canRestart {
			kill = rng.Intn(2) == 0
		}
		ev := Event{Step: step}
		if kill {
			ev.Kind = kindKill
			ev.Node = pick(true)
			live[ev.Node] = false
			liveCount--
		} else {
			ev.Kind = kindRestart
			ev.Node = pick(false)
			live[ev.Node] = true
			liveCount++
		}
		events = append(events, ev)
	}
	return events
}
