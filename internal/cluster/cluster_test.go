package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rofl/internal/netem"
	"rofl/internal/overlay"
	"rofl/internal/telemetry"
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
		case kindKill:
			if !live[ev.Node] {
				t.Fatalf("%v targets a dead node", ev)
			}
			live[ev.Node] = false
			count--
		case kindRestart:
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
// HTTP endpoint after traffic and checks the overlay counters moved. Its
// Fault is the zero value, so no uplink is wrapped and no netem fate
// series may appear.
func TestMetricsEndpointsServeLiveCounters(t *testing.T) {
	sup := New(Config{N: 5, Seed: 99, Stabilize: 20 * time.Millisecond})
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
			if m.drained.Load() < want {
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
		if strings.Contains(text, "rofl_netem_packet_total") {
			t.Fatalf("node %d: a zero Fault wrapped the uplink:\n%s", m.Index, text)
		}
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
		evictions += mem.reg.Counter(`rofl_overlay_eviction_total{kind="successor"}`).Value()
	}
	if evictions == 0 {
		t.Fatal("no eviction was counted for the killed node")
	}
}

// TestSupervisorCloseJoinsGoroutines runs one supervised lifetime:
// start 3 nodes with liveness on, converge, kill one until its
// neighbours report it, restart it, close. Every goroutine it started
// — each incarnation's node loops, metrics server and delivery drainer
// — must be gone once Close returns; under churn a goroutine leaked per
// incarnation would grow without bound. And its telemetry must be the
// namespace DESIGN.md §9 documents: the members' registries, plus one
// fabric registry, scrape to exactly the series table, and the events
// it emits are the event table's.
func TestSupervisorCloseJoinsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var events eventSink
	var scrapes []string
	// Kill and Close both wait for node loops, so the whole lifetime runs
	// under one deadline: a loop that ignores its stop hangs it.
	done := make(chan error, 1)
	go func() {
		sup := New(Config{N: 3, Seed: 12, Stabilize: 10 * time.Millisecond, EnableLiveness: true, Events: &events})
		err := sup.Start()
		if err == nil {
			err = sup.AwaitConverged(10 * time.Second)
		}
		if err == nil {
			err = sup.Kill(1)
		}
		if err == nil {
			err = events.await(10*time.Second, "succ_evicted", "pred_cleared")
		}
		if err == nil {
			err = sup.Restart(1)
		}
		sup.Close()
		for _, m := range sup.Members() {
			scrapes = append(scrapes, scrape(t, m.reg))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the supervised lifetime did not finish: a node loop or drainer ignores its stop")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across a supervised lifetime: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	fabric := telemetry.NewRegistry()
	netem.NewInstruments(fabric)
	scrapes = append(scrapes, scrape(t, fabric))
	docSeries, docEvents := designNamespace(t)
	scraped := map[string]bool{}
	for _, text := range scrapes {
		for _, line := range strings.Split(text, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			series := line[:strings.LastIndexByte(line, ' ')]
			if !docSeries[series] {
				t.Errorf("scraped series %s is not in DESIGN.md §9's series table", series)
			}
			scraped[series] = true
		}
	}
	for series := range docSeries {
		if !scraped[series] {
			t.Errorf("DESIGN.md §9 documents series %s, but no wired registry has it", series)
		}
	}
	emitted := events.types(t)
	for ev := range emitted {
		if !docEvents[ev] {
			t.Errorf("emitted event %s is not in DESIGN.md §9's event table", ev)
		}
	}
	// request_timeout needs a join whose retry budget runs out, which a
	// healthy lifetime never has; overlay's
	// TestRequestTimeoutEmitsEventAndCounter asserts it by name.
	const assertedElsewhere = "request_timeout"
	for ev := range docEvents {
		if !emitted[ev] && ev != assertedElsewhere {
			t.Errorf("DESIGN.md §9 documents event %s, but the lifetime never emitted it", ev)
		}
	}
}

// eventSink is the supervisor's event log writer, readable while the
// cluster writes to it.
type eventSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *eventSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// types returns the event type of every line written so far.
func (s *eventSink) types(t *testing.T) map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(s.buf.String()), "\n") {
		var ev struct{ Event string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		out[ev.Event] = true
	}
	return out
}

// await polls until every named event type has been written.
func (s *eventSink) await(timeout time.Duration, want ...string) error {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		text := s.buf.String()
		s.mu.Unlock()
		missing := ""
		for _, ev := range want {
			if !strings.Contains(text, `"event":"`+ev+`"`) {
				missing = ev
			}
		}
		if missing == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no %s event within %v", missing, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func scrape(t *testing.T, reg *telemetry.Registry) string {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Error(err)
	}
	return b.String()
}

// designNamespace reads the series and event tables of DESIGN.md §9:
// the first code span of each table row, a series when it starts with
// rofl_, an event type otherwise.
func designNamespace(t *testing.T) (series, events map[string]bool) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 9.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §9")
	}
	sec := doc[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	series, events = map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		name, _, _ := strings.Cut(line[len("| `"):], "`")
		if strings.HasPrefix(name, "rofl_") {
			series[name] = true
		} else {
			events[name] = true
		}
	}
	if len(series) == 0 || len(events) == 0 {
		t.Fatalf("DESIGN.md §9: %d series and %d event rows parsed", len(series), len(events))
	}
	return series, events
}

// TestFaultWrappedClusterConverges runs a small cluster whose uplinks
// drop 5% of packets through seeded netem faults, checks it still
// converges, and checks the fate counters surface in each member's
// registry.
func TestFaultWrappedClusterConverges(t *testing.T) {
	sup := New(Config{
		N: 5, Seed: 31, Stabilize: 25 * time.Millisecond,
		Fault: netem.LinkParams{Loss: 0.05, Latency: time.Millisecond},
	})
	t.Cleanup(func() { sup.Close() })
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sup.AwaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, m := range sup.Members() {
		if m.reg.Counter(`rofl_netem_packet_total{fate="sent"}`).Value() == 0 {
			t.Fatalf("node %d uplink saw no traffic", m.Index)
		}
	}
	// Stabilize traffic keeps flowing; at 5% loss the fate counters must
	// record a drop within a few hundred rounds.
	deadline := time.Now().Add(20 * time.Second)
	for {
		lost := uint64(0)
		for _, m := range sup.Members() {
			lost += m.reg.Counter(`rofl_netem_packet_total{fate="lost"}`).Value()
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
