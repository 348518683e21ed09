package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"rofl/internal/netem"
	"rofl/internal/topology"
	"rofl/internal/wire"
)

// None of these tests asserts on a clock: they check counts, checks and
// arithmetic, so they hold on a loaded box.

func TestTailPercentile(t *testing.T) {
	// The highest of p99 and p90 with at least ten samples beyond it,
	// else the maximum.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 100}, {99, 100}, {100, 90}, {999, 90}, {1000, 99}, {150000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	vs := make([]float64, 1000)
	for i := range vs {
		vs[999-i] = float64(i + 1) // 1..1000, reversed: summarize must sort
	}
	d := summarize(vs)
	if d.N != 1000 || d.P50 != 501 || d.TailPct != 99 || d.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v, want p50 501 and p99 990", d)
	}
	if beyond := 1000 - 990; beyond != 10 {
		t.Errorf("%d samples lie beyond the reported tail, want 10", beyond)
	}
	if d := summarize([]float64{3, 1, 2}); d.TailPct != 100 || d.Tail != 3 || d.P50 != 2 {
		t.Errorf("summarize of three = %+v, want the maximum as tail", d)
	}
}

func TestMedianAndRange(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if lo, hi := minMax([]float64{4, 1, 3}); lo != 1 || hi != 4 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "packet", Parent: -1, Start: 0, End: 100},
		{Name: "overlay.hop", Parent: 0, Start: 10, End: 50},
		{Name: "netem.udp_send", Parent: 1, Start: 20, End: 45},
		{Name: "overlay.hop", Parent: 0, Start: 60, End: 90},
		// A child that overruns its parent only counts where they overlap.
		{Name: "netem.udp_send", Parent: 3, Start: 80, End: 95},
	}
	want := []int64{100 - 40 - 30, 40 - 25, 25, 30 - 10, 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	isp := topology.GenISP(topology.AS1221)
	gen := topology.DefaultASGen()
	gen.Hosts = canonASHosts
	g := topology.GenAS(gen)
	inputs := func(seed int64) []any {
		return []any{
			genLiveIDs(seed, liveNodes),
			genLiveOps(seed, liveNodes, pingShape.sizes)[:512],
			genProbeOps(seed, 1000, 256),
			genVringJoins(seed, isp, 256),
			genVringRoutes(seed, isp, 256, 256),
			genCanonJoins(seed, g, 256),
			genCanonRoutes(seed, 256, 256),
		}
	}
	a, again, b := inputs(7), inputs(7), inputs(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], again[i]) {
			t.Errorf("input list %d differs between two generations from one seed", i)
		}
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input list %d is the same for seeds 7 and 8", i)
		}
	}
	for _, op := range genLiveOps(7, liveNodes, satShape.sizes) {
		if op.Src == op.Dst || int(op.Src) >= liveNodes || int(op.Dst) >= liveNodes {
			t.Fatalf("live op %+v: source and destination must be distinct members", op)
		}
	}
}

func TestPayloadChecks(t *testing.T) {
	for _, size := range []int{minPayload, 64, 1200} {
		buf := make([]byte, size)
		fillPayload(buf, 42, 12345, 7, 3)
		seq, sent, dst, sl, err := parsePayload(buf)
		if err != nil || seq != 42 || sent != 12345 || dst != 7 || sl != 3 {
			t.Errorf("size %d: parsed %d %d %d %d, %v", size, seq, sent, dst, sl, err)
		}
		buf[size/2] ^= 1
		if _, _, _, _, err := parsePayload(buf); err == nil {
			t.Errorf("size %d: a flipped bit passed the checksum", size)
		}
	}
	if _, _, _, _, err := parsePayload(make([]byte, minPayload-1)); err == nil {
		t.Error("a short payload passed")
	}
}

// TestKeyOfReadsTheWireFormat pins the offsets the tap reads sequence
// number and TTL at to what wire.Packet.AppendTo writes.
func TestKeyOfReadsTheWireFormat(t *testing.T) {
	payload := make([]byte, minPayload)
	fillPayload(payload, 5*traceEvery, 0, 1, 0)
	pkt := wire.Packet{Type: wire.TypeData, TTL: 250, Payload: payload}
	pkt.Dst[0], pkt.Src[15] = 0xaa, 0xbb
	b, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(b)
	if k.seq() != 5*traceEvery || k.ttl() != 250 {
		t.Errorf("keyOf read sequence %d TTL %d, want %d and 250", k.seq(), k.ttl(), 5*traceEvery)
	}
	fillPayload(payload, 5*traceEvery+1, 0, 1, 0)
	if b, _ = pkt.Marshal(); keyOf(b) != 0 {
		t.Error("an unsampled sequence number got a key")
	}
	pkt.Type = wire.TypeStabilize
	fillPayload(payload, 5*traceEvery, 0, 1, 0)
	if b, _ = pkt.Marshal(); keyOf(b) != 0 {
		t.Error("a control packet got a key")
	}
}

// TestTapPassesEveryCallThrough checks the traced transport against the
// plain one: same bytes, same addresses, the buffered receive path, and
// records only while recording is on.
func TestTapPassesEveryCallThrough(t *testing.T) {
	listen := func() *tap {
		udp, err := netem.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return newTap(udp, time.Now())
	}
	a, b := listen(), listen()
	defer a.Close()
	var tr netem.Transport = b
	if _, ok := tr.(netem.BufferedTransport); !ok {
		t.Fatal("tap does not implement netem.BufferedTransport: the read loop would fall off its buffered path")
	}
	if a.LocalAddr() != a.inner.LocalAddr() {
		t.Error("LocalAddr is not the socket's")
	}

	payload := make([]byte, minPayload)
	fillPayload(payload, traceEvery, 0, 1, 0)
	data, _ := (&wire.Packet{Type: wire.TypeData, TTL: wire.DefaultTTL, Payload: payload}).Marshal()
	control, _ := (&wire.Packet{Type: wire.TypeStabilize, TTL: wire.DefaultTTL}).Marshal()
	buf := make([]byte, 64*1024)

	b.on.Store(true)
	a.on.Store(true)
	for _, dgram := range [][]byte{data, control} {
		if err := a.Send(b.LocalAddr(), dgram); err != nil {
			t.Fatal(err)
		}
		n, from, err := b.RecvInto(buf)
		if err != nil || !bytes.Equal(buf[:n], dgram) || from != a.LocalAddr() {
			t.Fatalf("RecvInto gave %d bytes from %s, %v; sent %d from %s", n, from, err, len(dgram), a.LocalAddr())
		}
	}
	if err := a.Send(b.LocalAddr(), control); err != nil {
		t.Fatal(err)
	}
	if p, from, err := b.Recv(); err != nil || !bytes.Equal(p, control) || from != a.LocalAddr() {
		t.Fatalf("Recv gave %d bytes from %s, %v", len(p), from, err)
	}
	if len(a.origins) != 1 || a.origins[0].Key.seq() != traceEvery {
		t.Errorf("sender recorded origin sends %+v, want the one sampled data packet", a.origins)
	}
	if len(b.hops) != 1 || b.hops[0].Key.ttl() != wire.DefaultTTL || b.hops[0].NextRecv == 0 || b.hops[0].SendEnd != 0 {
		t.Errorf("receiver recorded hops %+v, want one closed hop without a send", b.hops)
	}

	b.on.Store(false)
	if err := a.Send(b.LocalAddr(), data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RecvInto(buf); err != nil || len(b.hops) != 1 {
		t.Errorf("with recording off: %v, %d hops", err, len(b.hops))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RecvInto(buf); err == nil {
		t.Error("RecvInto on a closed tap returned no error")
	}
}

func smokeOptions(t *testing.T, workload string, trace int) options {
	return options{workload: workload, seed: 5, seconds: 0.3, repeat: 1, trace: trace, out: t.TempDir(), scale: 0.01}
}

// TestSmokeEveryWorkload runs each workload at a hundredth of its size
// and asserts only counts and checks.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := realMain(smokeOptions(t, w.Name, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct %v, %d attempted, %d failed", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
		})
	}
}

// TestSmokeTracedRun checks that one traced run, of a live and of a
// simulated workload, carries the whole per-layer catalogue.
func TestSmokeTracedRun(t *testing.T) {
	for _, name := range []string{"udp_ring_ping", "sim_compact_converge"} {
		t.Run(name, func(t *testing.T) {
			opt := smokeOptions(t, name, 1)
			res, err := realMain(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct %v, %d failed", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s missing from the traced run", d.Name)
				}
			}
			if tx := res.Metrics["overlay.tx_per_delivered"].Value; tx < 1 {
				t.Errorf("overlay.tx_per_delivered = %v, want at least one transmission per delivery", tx)
			}
		})
	}
}

func TestOutputCheckFailuresAreReported(t *testing.T) {
	r := &run{workload: workloads[2]}
	r.add(roundOut{exact: values{"compact_ctl_msgs": 10}})
	r.add(roundOut{exact: values{"compact_ctl_msgs": 11}})
	if len(r.problems) != 1 {
		t.Errorf("an exact statistic that changed between rounds raised %d problems, want 1", len(r.problems))
	}
	r = &run{workload: workloads[2], exact: values{"compact_ctl_msgs": 10}}
	g := goldenFile{Seed: 1, Exact: map[string]values{r.workload.Name: {"compact_ctl_msgs": 12}}}
	checkGolden(r, g, 1, 1)
	if len(r.problems) != 1 {
		t.Errorf("a golden mismatch raised %d problems, want 1", len(r.problems))
	}
	r.problems = nil
	checkGolden(r, g, 2, 1)
	checkGolden(r, g, 1, 0.5)
	if len(r.problems) != 0 {
		t.Errorf("golden checks ran for another seed or size: %v", r.problems)
	}
}

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func specFromCatalogue() benchmarkSpec {
	s := benchmarkSpec{Command: []string{"bash", "benchmarks/run.sh"}, Paths: []string{"benchmarks"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		s.EndToEnd = append(s.EndToEnd, specMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{d.Name, d.Unit, d.Better, nil})
	}
	return s
}

// TestBenchmarkJSONMatchesTheCatalogue holds BENCHMARK.json to the
// catalogue and both to the driver's limits. UPDATE_BENCHMARK_JSON=1
// rewrites the file from the catalogue.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := specFromCatalogue()
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; run UPDATE_BENCHMARK_JSON=1 go test -run BenchmarkJSON .")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range got.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit or bound", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range got.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %+v: bad unit or direction", m)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 || len(b) > 64<<10 {
		t.Errorf("run_seconds %d or file size %d outside the limits", got.RunSeconds, len(b))
	}
}
