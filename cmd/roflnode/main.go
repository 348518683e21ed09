// Command roflnode runs one ROFL overlay node over UDP, speaking the
// binary wire format of internal/wire. Start a bootstrap node, then join
// others to it and exchange messages by flat label — a tiny live
// deployment of the protocol the simulator measures.
//
// Usage:
//
//	roflnode -name alice -listen 127.0.0.1:7001
//	roflnode -name bob   -listen 127.0.0.1:7002 -join 127.0.0.1:7001
//
// Observability: -metrics-addr exposes the node's counters over HTTP
// (/metrics in Prometheus text format, /ring for the live ring
// snapshot, /healthz), and -events streams structured JSON-lines events
// (evictions, join splices, request timeouts) to a file or stderr:
//
//	roflnode -name alice -metrics-addr 127.0.0.1:9100 -events -
//
// The node's loss tolerance can be demoed reproducibly by degrading its
// own uplink with the netem fault wrapper:
//
//	roflnode -name mallory -join 127.0.0.1:7001 -loss 0.3 -latency 20ms -seed 7
//
// drops 30% of outbound packets and delays the rest by 20ms, with the
// drop sequence determined by -seed. Joins still succeed because control
// requests are retried with exponential backoff.
//
// Interactive commands on stdin:
//
//	send <name> <message...>   greedy-route a message to the label of <name>
//	ring                       print this node's ring pointers
//	stats                      print all telemetry counters (Prometheus text)
//	id                         print this node's label
//	quit
//
// Cluster mode runs a whole supervised ring in one process — a
// churn drill with per-node metrics endpoints:
//
//	roflnode cluster -n 200 -seed 1 -churn
//
// launches 200 nodes on auto-allocated ports, waits for full
// convergence, routes a traffic pass, applies a seed-reproducible
// kill/restart schedule, waits for reconvergence, then scrapes every
// survivor's /metrics endpoint and verifies the forward and eviction
// counters moved. Exit status 0 means the drill passed.
//
// SIGINT/SIGTERM shut the node down cleanly (Close flushes the ring
// state and unblocks all loops), same as the quit command.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rofl"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		os.Exit(clusterMain(os.Args[2:]))
	}
	os.Exit(nodeMain())
}

// openEvents resolves the -events flag: "" disables, "-" or "stderr"
// stream to stderr, anything else appends to that file.
func openEvents(path string) (io.Writer, func(), error) {
	switch path {
	case "":
		return nil, func() {}, nil
	case "-", "stderr":
		return os.Stderr, func() {}, nil
	default:
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	}
}

func nodeMain() int {
	var (
		name        = flag.String("name", "", "node name (label = hash of name); required")
		listen      = flag.String("listen", "127.0.0.1:0", "UDP bind address")
		join        = flag.String("join", "", "address of an existing node to join through")
		loss        = flag.Float64("loss", 0, "outbound packet loss probability [0,1] (fault injection)")
		latency     = flag.Duration("latency", 0, "outbound base latency (fault injection)")
		jitter      = flag.Duration("jitter", 0, "outbound latency jitter (fault injection)")
		seed        = flag.Int64("seed", 1, "RNG seed for the fault schedule (reproducible runs)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /ring, /healthz on this address (empty = off)")
		events      = flag.String("events", "", "write JSON-lines events to this file ('-' = stderr, empty = off)")
		stabilize   = flag.Duration("stabilize", 250*time.Millisecond, "stabilization interval (0 = off)")
		bfd         = flag.Bool("bfd", true, "run the BFD-style adaptive failure detector on the successor")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "roflnode: -name is required")
		return 2
	}

	tr, err := rofl.ListenUDPTransport(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roflnode: %v\n", err)
		return 1
	}
	reg := rofl.NewTelemetryRegistry()
	var faults *rofl.FaultTransport
	if *loss > 0 || *latency > 0 || *jitter > 0 {
		faults = rofl.WrapFaultTransport(tr, rofl.FaultParams{
			Loss:    *loss,
			Latency: *latency,
			Jitter:  *jitter,
		}, *seed)
		// Uplink fates land in the same registry as the overlay counters,
		// so `stats` and /metrics show one unified view.
		faults.SetInstruments(rofl.NewFaultInstruments(reg))
		tr = faults
	}

	eventsW, closeEvents, err := openEvents(*events)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roflnode: events: %v\n", err)
		return 1
	}
	defer closeEvents()
	var log *rofl.EventLog
	if eventsW != nil {
		log = rofl.NewEventLog(eventsW)
	}

	// One construction carries the whole configuration: transport,
	// telemetry wiring, and the maintenance loops. Without stabilization
	// the pointers learned at join time rot, and without the liveness
	// detector a dead successor lingers for the stabilize-round failure
	// threshold, so both default on.
	id := rofl.IDFromString(*name)
	node, err := rofl.NewOverlayNode(id, rofl.NodeConfig{
		Transport:      tr,
		Registry:       reg,
		Events:         log,
		Stabilize:      *stabilize,
		EnableLiveness: *stabilize > 0 && *bfd,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "roflnode: %v\n", err)
		return 1
	}
	defer node.Close()

	if *metricsAddr != "" {
		srv, err := rofl.NewTelemetryServer(*metricsAddr, reg,
			func() any { return node.Status() },
			func() error {
				if _, _, ok := node.Successor(); !ok {
					return fmt.Errorf("not bootstrapped")
				}
				return nil
			})
		if err != nil {
			fmt.Fprintf(os.Stderr, "roflnode: metrics server: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Printf("metrics at %s/metrics\n", srv.URL())
	}

	if *join == "" {
		node.Bootstrap()
		fmt.Printf("bootstrapped ring; label %s at %s\n", id.Short(), node.Addr())
	} else {
		if err := node.Join(*join, 5*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "roflnode: join: %v\n", err)
			return 1
		}
		fmt.Printf("joined via %s; label %s at %s\n", *join, id.Short(), node.Addr())
	}

	// Print deliveries as they arrive.
	go func() {
		for d := range node.Deliveries() {
			fmt.Printf("\n[recv %s…] %s\n> ", d.Src.String()[:8], d.Payload)
		}
	}()

	// A clean shutdown path for both ^C and kill: Close the node so the
	// socket, read loop, and stabilization timer all stop.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	fmt.Print("> ")
	for {
		select {
		case sig := <-sigs:
			fmt.Printf("\nroflnode: %s — shutting down\n", sig)
			return 0 // deferred Close runs
		case line, ok := <-lines:
			if !ok {
				return 0 // stdin closed
			}
			fields := strings.Fields(line)
			switch {
			case len(fields) == 0:
			case fields[0] == "quit":
				return 0
			case fields[0] == "id":
				fmt.Printf("%s (%s)\n", id, node.Addr())
			case fields[0] == "ring":
				for _, l := range node.Ring() {
					fmt.Println(" ", l)
				}
			case fields[0] == "stats":
				// Every counter — overlay and uplink fates alike — lives in
				// the registry; print the same text /metrics serves.
				if err := reg.WritePrometheus(os.Stdout); err != nil {
					fmt.Printf("stats failed: %v\n", err)
				}
				fmt.Printf("rofl_overlay_dropped_deliveries %d\n", node.DroppedDeliveries())
			case fields[0] == "send" && len(fields) >= 3:
				dst := rofl.IDFromString(fields[1])
				msg := strings.Join(fields[2:], " ")
				if err := node.Send(dst, []byte(msg)); err != nil {
					fmt.Printf("send failed: %v\n", err)
				}
			default:
				fmt.Println("commands: send <name> <msg...> | ring | stats | id | quit")
			}
			fmt.Print("> ")
		}
	}
}

// clusterMain runs the supervised churn drill.
func clusterMain(args []string) int {
	fs := flag.NewFlagSet("roflnode cluster", flag.ExitOnError)
	var (
		n         = fs.Int("n", 200, "number of nodes")
		seed      = fs.Int64("seed", 1, "cluster seed (identities, churn schedule, faults)")
		churn     = fs.Bool("churn", false, "apply a seeded kill/restart schedule after convergence")
		steps     = fs.Int("churn-steps", 0, "churn events to apply (default n/10)")
		settle    = fs.Duration("settle", 100*time.Millisecond, "pause between churn events")
		stabilize = fs.Duration("stabilize", 25*time.Millisecond, "per-node stabilization interval")
		liveness  = fs.Bool("liveness", true, "run the BFD-style adaptive failure detector")
		loss      = fs.Float64("loss", 0, "per-uplink packet loss probability (seeded netem faults)")
		timeout   = fs.Duration("timeout", 120*time.Second, "convergence deadline per phase")
		events    = fs.String("events", "", "write supervisor JSON-lines events to this file ('-' = stderr)")
	)
	fs.Parse(args)
	if *steps <= 0 {
		*steps = *n / 10
	}

	eventsW, closeEvents, err := openEvents(*events)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roflnode cluster: events: %v\n", err)
		return 1
	}
	defer closeEvents()

	cfg := rofl.ClusterConfig{
		N:              *n,
		Seed:           *seed,
		Stabilize:      *stabilize,
		EnableLiveness: *liveness,
		Events:         eventsW,
	}
	if *loss > 0 {
		cfg.FaultsEnabled = true
		cfg.Fault = rofl.FaultParams{Loss: *loss}
	}
	sup := rofl.NewCluster(cfg)
	defer sup.Close()

	fmt.Printf("launching %d nodes (seed %d)...\n", *n, *seed)
	start := time.Now()
	if err := sup.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "roflnode cluster: %v\n", err)
		return 1
	}
	if err := sup.AwaitConverged(*timeout); err != nil {
		fmt.Fprintf(os.Stderr, "roflnode cluster: %v\n", err)
		return 1
	}
	fmt.Printf("converged in %v; sample endpoint %s\n",
		time.Since(start).Round(time.Millisecond), sup.Members()[0].MetricsURL())

	// Traffic pass: every node originates one packet to the member half
	// a ring away, so every node forwards (originating counts) and the
	// transit path crosses the ring.
	members := sup.Members()
	for i, m := range members {
		dst := members[(i+len(members)/2)%len(members)]
		if err := m.Node().Send(dst.ID(), []byte("drill")); err != nil {
			fmt.Fprintf(os.Stderr, "roflnode cluster: traffic: %v\n", err)
			return 1
		}
	}

	if *churn {
		evs := rofl.ClusterSchedule(*seed, *n, *steps)
		fmt.Printf("applying %d churn events...\n", len(evs))
		churnStart := time.Now()
		if err := sup.Run(evs, *settle); err != nil {
			fmt.Fprintf(os.Stderr, "roflnode cluster: churn: %v\n", err)
			return 1
		}
		if err := sup.AwaitConverged(*timeout); err != nil {
			fmt.Fprintf(os.Stderr, "roflnode cluster: post-churn: %v\n", err)
			fmt.Fprint(os.Stderr, sup.Journal())
			return 1
		}
		fmt.Printf("reconverged %v after churn\n", time.Since(churnStart).Round(time.Millisecond))
	}

	// Scrape every survivor's HTTP endpoint and verify the counters the
	// drill must have moved: forwards everywhere, evictions somewhere
	// when churn ran.
	var evictions, forwards uint64
	scraped := 0
	for _, m := range sup.Members() {
		if !m.Alive() {
			continue
		}
		text, err := scrape(m.MetricsURL())
		if err != nil {
			fmt.Fprintf(os.Stderr, "roflnode cluster: scrape node %d: %v\n", m.Index, err)
			return 1
		}
		scraped++
		fwd := seriesSum(text, "rofl_overlay_forward_total")
		if fwd == 0 {
			fmt.Fprintf(os.Stderr, "roflnode cluster: node %d forwarded nothing\n", m.Index)
			return 1
		}
		forwards += fwd
		evictions += seriesSum(text, "rofl_overlay_eviction_total")
	}
	if *churn && evictions == 0 {
		fmt.Fprintln(os.Stderr, "roflnode cluster: churn ran but no evictions were counted")
		return 1
	}
	fmt.Printf("drill passed: %d nodes scraped, %d forwards, %d evictions\n",
		scraped, forwards, evictions)
	return 0
}

// scrape fetches one metrics endpoint.
func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// seriesSum adds every sample of the named family in a Prometheus text
// scrape, labeled series included.
func seriesSum(text, family string) uint64 {
	var sum uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		// Either "name value" or "name{labels} value".
		if strings.HasPrefix(rest, "{") {
			if i := strings.Index(rest, "} "); i >= 0 {
				rest = rest[i+1:]
			} else {
				continue
			}
		}
		if !strings.HasPrefix(rest, " ") {
			continue // a longer family name sharing the prefix
		}
		v, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			continue
		}
		sum += v
	}
	return sum
}
