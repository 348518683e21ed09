package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rofl_test_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d want 5", got)
	}
	if r.Counter("rofl_test_total") != c {
		t.Fatal("same name must return the same counter handle")
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var l *EventLog
	c.Inc()
	c.Add(3)
	l.Info("nothing happens")
	l.Warn("nothing happens")
	if c.Value() != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

// Handle updates run per forwarded packet, so each one must stay an
// atomic operation on a pre-resolved handle: no allocation.
func TestHandleUpdatesZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rofl_test_total")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
	}); allocs != 0 {
		t.Fatalf("handle updates allocate %.2f per op, want 0", allocs)
	}
	if c.Value() == 0 {
		t.Fatal("handle updates did not land")
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	// Registered deliberately out of order; rendering must sort.
	r.Counter("zzz_total").Add(2)
	r.Counter(`aaa_total{kind="x"}`).Add(1)
	r.Counter(`aaa_total{kind="y"}`).Add(3)
	r.Counter("mmm_total").Add(4)

	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of identical state must be byte-identical")
	}
	out := a.String()
	want := []string{
		"# TYPE aaa_total counter",
		`aaa_total{kind="x"} 1`,
		`aaa_total{kind="y"} 3`,
		"# TYPE mmm_total counter",
		"mmm_total 4",
		"# TYPE zzz_total counter",
		"zzz_total 2",
	}
	idx := -1
	for _, line := range want {
		at := strings.Index(out, line)
		if at < 0 {
			t.Fatalf("missing line %q in output:\n%s", line, out)
		}
		if at < idx {
			t.Fatalf("line %q out of order in output:\n%s", line, out)
		}
		idx = at
	}
	// One TYPE header per family, even with several labeled series.
	if strings.Count(out, "# TYPE aaa_total") != 1 {
		t.Fatalf("family header emitted more than once:\n%s", out)
	}
}

func TestEventLogJSONLines(t *testing.T) {
	var buf bytes.Buffer
	fixed := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	l := newEventLogClock(&buf, func() time.Time { return fixed })
	l.Info("succ_evicted", "peer", "ab12…", "misses", 4, "reason", "stabilize-timeout")
	l.Warn("weird \"quote\"", "err", fmt.Errorf("boom\nline2"))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v\n%s", err, lines[0])
	}
	if first["event"] != "succ_evicted" || first["level"] != "info" {
		t.Fatalf("unexpected fields: %v", first)
	}
	if first["misses"] != float64(4) || first["peer"] != "ab12…" {
		t.Fatalf("unexpected values: %v", first)
	}
	if first["ts"] != "2026-08-08T12:00:00Z" {
		t.Fatalf("ts = %v", first["ts"])
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 is not valid JSON: %v\n%s", err, lines[1])
	}
	if second["level"] != "warn" || second["event"] != "weird \"quote\"" {
		t.Fatalf("unexpected fields: %v", second)
	}
	if second["err"] != "boom\nline2" {
		t.Fatalf("err field = %q", second["err"])
	}
}

// TestRegistryConcurrentScrape hammers the registry from many
// goroutines — creating series, bumping shared and per-worker counters —
// while the HTTP endpoint is scraped concurrently. Run under -race this
// is the memory-safety proof for the lock-free hot path.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	srv, err := NewServer("127.0.0.1:0", r, func() any {
		return map[string]string{"state": "test"}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := r.Counter(fmt.Sprintf("rofl_worker_total{worker=\"%d\"}", w))
			shared := r.Counter("rofl_shared_total")
			for i := 0; i < perWorker; i++ {
				own.Inc()
				shared.Inc()
			}
		}(w)
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 50; i++ {
			resp, err := http.Get(srv.URL() + "/metrics")
			if err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()
	<-scrapeDone

	if got := r.Counter("rofl_shared_total").Value(); got != workers*perWorker {
		t.Fatalf("shared counter = %d want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter(fmt.Sprintf("rofl_worker_total{worker=\"%d\"}", w)).Value(); got != perWorker {
			t.Fatalf("worker %d counter = %d want %d", w, got, perWorker)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("rofl_up_total").Inc()
	healthy := true
	var mu sync.Mutex
	srv, err := NewServer("127.0.0.1:0", r, func() any {
		return struct {
			ID    string   `json:"id"`
			Succs []string `json:"successors"`
		}{ID: "abcd", Succs: []string{"ef01", "2345"}}
	}, func() error {
		mu.Lock()
		defer mu.Unlock()
		if !healthy {
			return fmt.Errorf("draining")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "rofl_up_total 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body := get("/ring")
	if code != 200 {
		t.Fatalf("/ring status = %d", code)
	}
	var ring struct {
		ID    string   `json:"id"`
		Succs []string `json:"successors"`
	}
	if err := json.Unmarshal([]byte(body), &ring); err != nil {
		t.Fatalf("/ring not JSON: %v\n%s", err, body)
	}
	if ring.ID != "abcd" || len(ring.Succs) != 2 {
		t.Fatalf("/ring = %+v", ring)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d want 200", code)
	}
	mu.Lock()
	healthy = false
	mu.Unlock()
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("/healthz while draining = %d want 503", code)
	}
}

// Close must join the Serve goroutine: after Close returns, the
// acceptor must be gone. Regression test for the unjoined goroutine the
// former golifetime analyzer surfaced — under the cluster supervisor a leaked
// acceptor per node incarnation is an unbounded leak.
func TestServerCloseJoinsServeGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		srv, err := NewServer("127.0.0.1:0", NewRegistry(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for Serve to return, so no acceptor goroutines can
	// accumulate. Allow brief scheduler noise before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across Server lifecycles: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
