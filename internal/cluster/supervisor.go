package cluster

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rofl/internal/ident"
	"rofl/internal/netem"
	"rofl/internal/overlay"
	"rofl/internal/telemetry"
)

// Config shapes a supervised cluster.
type Config struct {
	// N is the number of overlay nodes to run.
	N int
	// Seed drives node identities and each node's uplink fault RNG; the
	// same seed reproduces the same cluster layout.
	Seed int64
	// Stabilize is each node's stabilization interval (default 50ms).
	Stabilize time.Duration
	// Liveness enables BFD-style successor probing on every node with
	// the given parameters; zero fields take the overlay defaults.
	// Probing starts only when EnableLiveness is set.
	Liveness overlay.LivenessParams
	// EnableLiveness turns the adaptive failure detector on.
	EnableLiveness bool
	// Fault, when not the zero value, wraps every node's uplink in a
	// netem.Fault with these parameters, seeded from Seed and the node
	// index — seed-reproducible chaos on real UDP sockets.
	Fault netem.LinkParams
	// Events receives the supervisor's structured event log; nil
	// discards it.
	Events io.Writer
}

const (
	// joinTimeout bounds each node's join exchange.
	joinTimeout = 10 * time.Second
	// poll is the convergence-check interval.
	poll = 25 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Stabilize <= 0 {
		c.Stabilize = 50 * time.Millisecond
	}
	return c
}

// Member is one supervised node slot. The slot survives kill/restart
// cycles: the identifier and the telemetry registry are permanent (so
// counters accumulate across incarnations), while the overlay node, its
// socket, and its metrics server are per-incarnation.
type Member struct {
	// Index is the slot's position, stable for the cluster's lifetime.
	Index int

	id    ident.ID
	reg   *telemetry.Registry
	alive atomic.Bool

	mu       sync.Mutex
	node     *overlay.Node
	srv      *telemetry.Server
	drained  atomic.Uint64 // data deliveries consumed by the drainer
	faultSeq int64         // incarnation counter, salts the fault RNG seed
}

// ID returns the member's permanent overlay identifier.
func (m *Member) ID() ident.ID { return m.id }

// Alive reports whether the member currently runs a node.
func (m *Member) Alive() bool { return m.alive.Load() }

// Node returns the current overlay node, or nil while killed.
func (m *Member) Node() *overlay.Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.node
}

// MetricsURL returns the current incarnation's metrics endpoint, or ""
// while killed.
func (m *Member) MetricsURL() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.srv == nil {
		return ""
	}
	return m.srv.URL() + "/metrics"
}

// The supervisor's event catalog: every structured event type it emits
// to the cluster journal (documented in DESIGN.md §9).
const (
	eventNodeStarted      = "node_started"
	eventNodeKilled       = "node_killed"
	eventNodeRestarted    = "node_restarted"
	eventClusterConverged = "cluster_converged"
	eventClusterDrained   = "cluster_drained"
)

// Supervisor launches, observes, churns, and drains a cluster of
// in-process overlay nodes.
type Supervisor struct {
	cfg Config
	log *telemetry.EventLog

	mu      sync.Mutex
	members []*Member
	started bool
	closed  bool
	journal strings.Builder
	wg      sync.WaitGroup
}

// New prepares a supervisor; Start launches the nodes.
func New(cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	s := &Supervisor{cfg: cfg}
	if cfg.Events != nil {
		s.log = telemetry.NewEventLog(cfg.Events)
	}
	s.members = make([]*Member, cfg.N)
	for i := range s.members {
		s.members[i] = &Member{
			Index: i,
			id:    memberID(cfg.Seed, i),
			reg:   telemetry.NewRegistry(),
		}
	}
	return s
}

// memberID derives slot i's permanent identifier from the cluster seed.
func memberID(seed int64, i int) ident.ID {
	return ident.FromString(fmt.Sprintf("cluster-%d/%d", seed, i))
}

// Members returns the member slots (a copy of the slice; slots are
// shared).
func (s *Supervisor) Members() []*Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Member(nil), s.members...)
}

// journalf appends one line to the deterministic action journal.
// Caller holds s.mu.
func (s *Supervisor) journalf(format string, args ...any) {
	fmt.Fprintf(&s.journal, format+"\n", args...)
}

// Journal returns the action journal: every launch, kill, and restart
// in order, with live counts — a pure function of the configuration and
// the applied schedule, so two same-seed runs produce byte-identical
// journals.
func (s *Supervisor) Journal() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.String()
}

// liveCountLocked counts members currently running. Caller holds s.mu.
func (s *Supervisor) liveCountLocked() int {
	live := 0
	for _, m := range s.members {
		if m.Alive() {
			live++
		}
	}
	return live
}

// joinTargetLocked returns the lowest-index live member other than
// skip, or nil. Caller holds s.mu.
func (s *Supervisor) joinTargetLocked(skip int) *Member {
	for _, m := range s.members {
		if m.Index != skip && m.Alive() {
			return m
		}
	}
	return nil
}

// launch builds slot i's next incarnation: socket, optional fault
// wrapper, node, telemetry wiring, metrics server, delivery drainer.
// The node is not yet joined to anything. Caller holds s.mu.
func (s *Supervisor) launchLocked(m *Member) error {
	var tr netem.Transport
	udp, err := netem.ListenUDP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cluster: node %d socket: %w", m.Index, err)
	}
	tr = udp
	m.faultSeq++
	if s.cfg.Fault != (netem.LinkParams{}) {
		// Salt the seed with slot and incarnation so every uplink draws
		// an independent—but reproducible—fault sequence.
		fault := netem.WrapFault(udp, s.cfg.Fault, s.cfg.Seed^int64(m.Index)<<20^m.faultSeq)
		fault.SetInstruments(netem.NewInstruments(m.reg))
		tr = fault
	}
	// One construction call carries the whole per-incarnation shape:
	// transport, an aggressive loopback retry policy, telemetry wiring,
	// and both maintenance loops (which tick harmlessly until the join
	// below gives the node a successor).
	node, err := overlay.New(m.id, overlay.Config{
		Transport:      tr,
		Retry:          overlay.RetryPolicy{Initial: 50 * time.Millisecond, Max: 800 * time.Millisecond, Multiplier: 2},
		Registry:       m.reg,
		Events:         s.log,
		Stabilize:      s.cfg.Stabilize,
		EnableLiveness: s.cfg.EnableLiveness,
		Liveness:       s.cfg.Liveness,
	})
	if err != nil {
		tr.Close()
		return fmt.Errorf("cluster: node %d: %w", m.Index, err)
	}
	srv, err := telemetry.NewServer("127.0.0.1:0", m.reg, func() any { return node.Status() }, func() error {
		if _, _, ok := node.Successor(); !ok {
			return errors.New("not bootstrapped")
		}
		return nil
	})
	if err != nil {
		node.Close()
		return fmt.Errorf("cluster: node %d metrics server: %w", m.Index, err)
	}
	m.mu.Lock()
	m.node = node
	m.srv = srv
	m.mu.Unlock()
	m.alive.Store(true)
	// Drain deliveries so slow-consumer drops never mask routing
	// results; the loop ends when Close closes the channel.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for range node.Deliveries() {
			m.drained.Add(1)
		}
	}()
	return nil
}

// Start launches all N nodes and joins them into one ring through slot
// 0. Detectors (stabilize timer, and the liveness prober when enabled)
// start on every node before Start returns.
func (s *Supervisor) Start() error {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return errors.New("cluster: already started or closed")
	}
	s.started = true
	s.mu.Unlock()

	for i := range s.members {
		s.mu.Lock()
		m := s.members[i]
		if err := s.launchLocked(m); err != nil {
			s.mu.Unlock()
			return err
		}
		target := s.joinTargetLocked(m.Index)
		s.journalf("launch node %d (live %d/%d)", m.Index, s.liveCountLocked(), len(s.members))
		s.mu.Unlock()

		node := m.Node()
		if target == nil {
			node.Bootstrap()
		} else if err := node.Join(target.Node().Addr(), joinTimeout); err != nil {
			return fmt.Errorf("cluster: node %d join: %w", m.Index, err)
		}
		s.log.Info(eventNodeStarted, "node", m.Index, "id", m.id.Short(), "addr", node.Addr())
	}
	return nil
}

// Kill terminates slot i's node abruptly: the socket closes mid-flight
// with no teardown message, exactly like a crashed process. The ring
// must notice through its failure detectors.
func (s *Supervisor) Kill(i int) error {
	s.mu.Lock()
	if i < 0 || i >= len(s.members) {
		s.mu.Unlock()
		return fmt.Errorf("cluster: no node %d", i)
	}
	m := s.members[i]
	if !m.Alive() {
		s.mu.Unlock()
		return fmt.Errorf("cluster: node %d already dead", i)
	}
	m.alive.Store(false)
	m.mu.Lock()
	node, srv := m.node, m.srv
	m.node, m.srv = nil, nil
	m.mu.Unlock()
	s.journalf("kill node %d (live %d/%d)", i, s.liveCountLocked(), len(s.members))
	s.mu.Unlock()

	node.Close()
	srv.Close()
	s.log.Warn(eventNodeKilled, "node", i, "id", m.id.Short())
	return nil
}

// Restart brings a killed slot back: same identifier, fresh port, fresh
// fault sequence, rejoined through the lowest-index live member.
func (s *Supervisor) Restart(i int) error {
	s.mu.Lock()
	if i < 0 || i >= len(s.members) {
		s.mu.Unlock()
		return fmt.Errorf("cluster: no node %d", i)
	}
	m := s.members[i]
	if m.Alive() {
		s.mu.Unlock()
		return fmt.Errorf("cluster: node %d already live", i)
	}
	if err := s.launchLocked(m); err != nil {
		s.mu.Unlock()
		return err
	}
	target := s.joinTargetLocked(i)
	s.journalf("restart node %d (live %d/%d)", i, s.liveCountLocked(), len(s.members))
	s.mu.Unlock()

	node := m.Node()
	if target == nil {
		node.Bootstrap()
	} else if err := node.Join(target.Node().Addr(), joinTimeout); err != nil {
		return fmt.Errorf("cluster: node %d rejoin: %w", i, err)
	}
	s.log.Info(eventNodeRestarted, "node", i, "id", m.id.Short(), "addr", node.Addr())
	return nil
}

// Apply executes one schedule event.
func (s *Supervisor) Apply(ev Event) error {
	switch ev.Kind {
	case KindKill:
		return s.Kill(ev.Node)
	case KindRestart:
		return s.Restart(ev.Node)
	default:
		return fmt.Errorf("cluster: unknown event %v", ev)
	}
}

// Run applies a schedule, pausing settle between events so failure
// detection and repair overlap the churn rather than queueing behind
// it.
func (s *Supervisor) Run(events []Event, settle time.Duration) error {
	for _, ev := range events {
		if err := s.Apply(ev); err != nil {
			return err
		}
		if settle > 0 {
			t := time.NewTimer(settle)
			<-t.C
		}
	}
	return nil
}

// Converged reports whether the live members form one consistent ring:
// every live node's successor and predecessor pointers trace the sorted
// identifier order over exactly the live membership.
func (s *Supervisor) Converged() bool {
	live := make([]*overlay.Node, 0, len(s.Members()))
	for _, m := range s.Members() {
		if node := m.Node(); node != nil && m.Alive() {
			live = append(live, node)
		}
	}
	return len(live) > 0 && overlay.CheckRing(live) == nil
}

// AwaitConverged polls until the live ring is consistent or the timeout
// elapses, counted in poll intervals.
func (s *Supervisor) AwaitConverged(timeout time.Duration) error {
	rounds := max(int(timeout/poll), 1)
	for i := 0; i < rounds; i++ {
		if s.Converged() {
			s.log.Info(eventClusterConverged, "live", s.liveCount())
			return nil
		}
		t := time.NewTimer(poll)
		<-t.C
	}
	return fmt.Errorf("cluster: %d live nodes not converged after %v", s.liveCount(), timeout)
}

// liveCount counts members currently running.
func (s *Supervisor) liveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveCountLocked()
}

// Close drains the cluster: every live node and metrics server shuts
// down, delivery drainers finish, and the supervisor is spent.
func (s *Supervisor) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	victims := make([]*Member, 0, len(s.members))
	for _, m := range s.members {
		if m.Alive() {
			m.alive.Store(false)
			victims = append(victims, m)
		}
	}
	s.journalf("drain (live 0/%d)", len(s.members))
	s.mu.Unlock()

	for _, m := range victims {
		m.mu.Lock()
		node, srv := m.node, m.srv
		m.node, m.srv = nil, nil
		m.mu.Unlock()
		if node != nil {
			node.Close()
		}
		if srv != nil {
			srv.Close()
		}
	}
	s.wg.Wait()
	s.log.Info(eventClusterDrained)
	return nil
}
