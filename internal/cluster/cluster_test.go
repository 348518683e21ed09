package cluster

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"rofl/internal/netem"
	"rofl/internal/overlay"
)

// TestScheduleDeterministicAndWellFormed checks the schedule is a pure
// function of its inputs and maintains its invariants: kills target
// live nodes, restarts target dead nodes, and at least half the
// cluster stays alive after every step.
func TestScheduleDeterministicAndWellFormed(t *testing.T) {
	const n, steps = 25, 40
	a := Schedule(7, n, steps)
	b := Schedule(7, n, steps)
	if len(a) != steps {
		t.Fatalf("schedule has %d events, want %d", len(a), steps)
	}
	render := func(evs []Event) string {
		var sb strings.Builder
		for _, ev := range evs {
			sb.WriteString(ev.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if render(a) != render(b) {
		t.Fatal("same seed produced different schedules")
	}
	if render(a) == render(Schedule(8, n, steps)) {
		t.Fatal("different seeds produced identical schedules")
	}

	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	count := n
	for _, ev := range a {
		switch ev.Kind {
		case KindKill:
			if !live[ev.Node] {
				t.Fatalf("%v targets a dead node", ev)
			}
			live[ev.Node] = false
			count--
		case KindRestart:
			if live[ev.Node] {
				t.Fatalf("%v targets a live node", ev)
			}
			live[ev.Node] = true
			count++
		default:
			t.Fatalf("%v has unknown kind", ev)
		}
		if count < (n+1)/2 {
			t.Fatalf("after %v only %d/%d nodes live", ev, count, n)
		}
	}
}

// churnConfig is the 25-node configuration the reconvergence and
// determinism tests share.
func churnConfig(seed int64) Config {
	return Config{
		N:              25,
		Seed:           seed,
		Stabilize:      25 * time.Millisecond,
		EnableLiveness: true,
		Liveness:       overlay.LivenessParams{MinTx: 10 * time.Millisecond, MinRx: 5 * time.Millisecond, Multiplier: 4},
		JoinTimeout:    15 * time.Second,
	}
}

// runChurn boots a 25-node cluster, applies a seeded churn schedule,
// and requires full reconvergence of the survivors. It returns the
// supervisor's journal.
func runChurn(t *testing.T, seed int64) string {
	t.Helper()
	sup := New(churnConfig(seed))
	t.Cleanup(func() { sup.Close() })
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sup.AwaitConverged(30 * time.Second); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}
	if err := sup.Run(Schedule(seed, 25, 12), 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sup.AwaitConverged(60 * time.Second); err != nil {
		t.Fatalf("post-churn convergence: %v\njournal:\n%s", err, sup.Journal())
	}
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	return sup.Journal()
}

// TestChurnReconvergesAndJournalIsReproducible is the cluster
// acceptance test: a seeded 25-node churn run reconverges to one
// consistent ring, and two runs with the same seed leave byte-identical
// journals.
func TestChurnReconvergesAndJournalIsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second churn drill")
	}
	first := runChurn(t, 4242)
	second := runChurn(t, 4242)
	if first != second {
		t.Fatalf("same-seed journals differ:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "kill node ") || !strings.Contains(first, "restart node ") {
		t.Fatalf("journal shows no churn:\n%s", first)
	}
}

// TestMetricsEndpointsServeLiveCounters scrapes every live member's
// HTTP endpoint after traffic and checks the overlay counters moved.
func TestMetricsEndpointsServeLiveCounters(t *testing.T) {
	sup := New(Config{N: 5, Seed: 99, Stabilize: 20 * time.Millisecond, JoinTimeout: 10 * time.Second})
	t.Cleanup(func() { sup.Close() })
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sup.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	members := sup.Members()
	for _, src := range members {
		for _, dst := range members {
			if src.Index == dst.Index {
				continue
			}
			if err := src.Node().Send(dst.ID(), []byte("scrape-me")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every delivery is drained by the supervisor; wait for all of them.
	want := uint64(len(members) - 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, m := range members {
			if m.Drained() < want {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deliveries never drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, m := range members {
		resp, err := http.Get(m.MetricsURL())
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text := string(body)
		for _, series := range []string{"rofl_overlay_forward_total", "rofl_overlay_delivered_total"} {
			val, ok := scrapeValue(text, series)
			if !ok {
				t.Fatalf("node %d scrape lacks %s:\n%s", m.Index, series, text)
			}
			if val == "0" {
				t.Fatalf("node %d has %s = 0 after traffic", m.Index, series)
			}
		}
	}
}

// scrapeValue extracts a series value from Prometheus text format.
func scrapeValue(text, series string) (string, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest, true
		}
	}
	return "", false
}

// TestKillRestartAccounting checks supervisor bookkeeping: dead nodes
// cannot be killed twice, live nodes cannot be restarted, restarts keep
// the identifier, and the eviction counters move when a node dies.
func TestKillRestartAccounting(t *testing.T) {
	sup := New(Config{
		N: 4, Seed: 5, Stabilize: 20 * time.Millisecond,
		EnableLiveness: true,
		JoinTimeout:    10 * time.Second,
	})
	t.Cleanup(func() { sup.Close() })
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sup.AwaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := sup.Members()[2]
	idBefore := m.ID()
	if err := sup.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := sup.Kill(2); err == nil {
		t.Fatal("double kill must fail")
	}
	if m.Alive() || m.Node() != nil || m.MetricsURL() != "" {
		t.Fatal("killed member still exposes a node")
	}
	if err := sup.AwaitConverged(30 * time.Second); err != nil {
		t.Fatalf("survivors did not heal: %v", err)
	}
	if err := sup.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := sup.Restart(2); err == nil {
		t.Fatal("double restart must fail")
	}
	if m.ID() != idBefore || m.Node().ID() != idBefore {
		t.Fatal("restart changed the member identity")
	}
	if err := sup.AwaitConverged(30 * time.Second); err != nil {
		t.Fatalf("rejoin did not converge: %v", err)
	}
	evictions := uint64(0)
	for _, mem := range sup.Members() {
		evictions += mem.Registry().Counter(`rofl_overlay_eviction_total{kind="successor"}`).Value()
	}
	if evictions == 0 {
		t.Fatal("no eviction was counted for the killed node")
	}
}

// Close joins everything a supervised lifetime started — every
// incarnation's node loops, metrics server and delivery drainer — so a
// cluster that churned leaves the goroutine count where it was. Under
// churn a goroutine leaked per incarnation would grow without bound.
func TestSupervisorCloseJoinsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	// Kill and Close both wait for node loops, so the whole lifetime runs
	// under one deadline: a loop that ignores its stop hangs it.
	done := make(chan error, 1)
	go func() {
		sup := New(Config{N: 3, Seed: 12, Stabilize: 10 * time.Millisecond, EnableLiveness: true})
		err := sup.Start()
		if err == nil {
			err = sup.Kill(1)
		}
		if err == nil {
			err = sup.Restart(1)
		}
		sup.Close()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the supervised lifetime did not finish: a node loop or drainer ignores its stop")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across a supervised lifetime: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultWrappedClusterConverges runs a small cluster whose uplinks
// drop 5% of packets through seeded netem faults, checks it still
// converges, and checks the fate counters surface in each member's
// registry.
func TestFaultWrappedClusterConverges(t *testing.T) {
	sup := New(Config{
		N: 5, Seed: 31, Stabilize: 25 * time.Millisecond,
		FaultsEnabled: true,
		Fault:         netem.LinkParams{Loss: 0.05, Latency: time.Millisecond},
		JoinTimeout:   15 * time.Second,
	})
	t.Cleanup(func() { sup.Close() })
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sup.AwaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, m := range sup.Members() {
		if m.UplinkStats().Sent == 0 {
			t.Fatalf("node %d uplink saw no traffic", m.Index)
		}
	}
	// Stabilize traffic keeps flowing; at 5% loss the fate counters must
	// record a drop within a few hundred rounds.
	deadline := time.Now().Add(20 * time.Second)
	for {
		lost := uint64(0)
		for _, m := range sup.Members() {
			lost += m.Registry().Counter(`rofl_netem_packet_total{fate="lost"}`).Value()
		}
		if lost > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a 5%-loss cluster never counted a lost packet")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
