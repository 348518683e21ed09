// Command benchmarks is the repository's benchmark: it builds each
// workload from -seed, runs it, checks its outputs and prints every metric
// of the catalogue by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// values maps metric names to one round's (or one run's) readings.
type values map[string]float64

// roundCtx is what one round of a workload is given.
type roundCtx struct {
	seed int64
	// budget is how long a time-bounded measured stretch lasts. Workloads
	// whose operation changes the structure it runs on (joins, converge)
	// do a fixed amount of work instead and ignore it.
	budget time.Duration
	// scale shrinks the workload's sizes; 1 is the recorded size, tests
	// and the slices of a traced run use less.
	scale  float64
	traced bool
}

// size scales a count, keeping at least floor.
func (rc roundCtx) size(n, floor int) int {
	return max(int(float64(n)*rc.scale), floor)
}

// roundOut is what one round reports.
type roundOut struct {
	attempted, failed int64
	measured          time.Duration
	vals              values // one reading per round: end to end, and per layer when traced
	// readings holds the metrics read once per segment of the measured
	// stretch (see segments).
	readings map[string][]float64
	exact    values // simulated statistics that must repeat exactly
	problems []string
	spans    []span
}

func (o *roundOut) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one row of the catalogue's workload table.
type workload struct {
	Name   string
	Why    string
	family string
	// rounds is how many rounds (set-up plus measured stretch) the
	// measured seconds are spread over; -repeat overrides it. More rounds
	// average over more rings or networks built, at the price of more
	// set-ups.
	rounds int
	round  func(rc roundCtx) (roundOut, error)
}

// run is everything measured for one workload in one process.
type run struct {
	workload          workload
	rounds            []roundOut
	attempted, failed int64
	problems          []string
	exact             values
	layers            values // traced runs
}

func (r *run) add(o roundOut) {
	r.rounds = append(r.rounds, o)
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
	if r.exact == nil {
		r.exact = o.exact
		return
	}
	for k, v := range o.exact {
		if w, ok := r.exact[k]; ok && w != v {
			r.problems = append(r.problems, fmt.Sprintf("%s: exact statistic %s changed between rounds: %v then %v", r.workload.Name, k, w, v))
		}
	}
}

func (r *run) measured() time.Duration {
	var d time.Duration
	for _, o := range r.rounds {
		d += o.measured
	}
	return d
}

// series collects one metric's readings from every round.
func (r *run) series(name string) []float64 {
	var vs []float64
	for _, o := range r.rounds {
		if rs, ok := o.readings[name]; ok {
			vs = append(vs, rs...)
		} else if v, ok := o.vals[name]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// maxRounds stops a fixed-work workload whose rounds are much shorter
// than planned from repeating without end.
const maxRounds = 64

// measure runs the workloads' rounds interleaved — every workload's first
// round, then every workload's second — so that a slow stretch of the
// host falls on all of them and a median over rounds discards it. Each
// workload gets at least its number of rounds (repeat, when positive) and
// keeps going until it has measured for seconds.
func measure(ws []workload, seed int64, seconds float64, repeat int, scale float64) ([]*run, error) {
	runs := make([]*run, len(ws))
	for i, w := range ws {
		if repeat > 0 {
			w.rounds = repeat
		}
		runs[i] = &run{workload: w}
	}
	want := time.Duration(seconds * float64(time.Second))
	for round := 0; round < maxRounds; round++ {
		busy := false
		for _, r := range runs {
			rounds := r.workload.rounds
			if round >= rounds && r.measured() >= want {
				continue
			}
			busy = true
			o, err := r.workload.round(roundCtx{seed: seed, budget: want / time.Duration(rounds), scale: scale})
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", r.workload.Name, round, err)
			}
			r.add(o)
		}
		if !busy {
			break
		}
	}
	return runs, nil
}

// metricLine is one metric of the result: the median over rounds, and
// the range beside it.
type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func summarizeRun(r *run, defs []metricDef, from func(name string) []float64) (map[string]metricLine, error) {
	out := make(map[string]metricLine, len(defs))
	for _, d := range defs {
		vs := from(d.Name)
		if len(vs) == 0 {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.workload.Name, d.Name)
		}
		m := median(vs)
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", r.workload.Name, d.Name, m)
		}
		lo, hi := minMax(vs)
		out[d.Name] = metricLine{Value: m, Unit: d.Unit, Min: lo, Max: hi, N: len(vs)}
	}
	return out, nil
}

// resultLine is the last line of standard output, in the driver's shape.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]unitMetric `json:"metrics"`
}

type unitMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the file written under -out: the result with ranges, the
// exact statistics, and where it was measured.
type report struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Traced    bool                  `json:"traced"`
	Host      fingerprint           `json:"host"`
	Correct   bool                  `json:"correct"`
	Problems  []string              `json:"problems,omitempty"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Rounds    int                   `json:"rounds"`
	Metrics   map[string]metricLine `json:"metrics"`
	Exact     values                `json:"exact,omitempty"`
}

func printTable(title string, defs []metricDef, lines map[string]metricLine) {
	fmt.Println(title)
	for _, d := range defs {
		l := lines[d.Name]
		rng := ""
		if l.N > 1 {
			rng = fmt.Sprintf("  [%.6g .. %.6g] over %d", l.Min, l.Max, l.N)
		}
		fmt.Printf("  %-36s %14.6g %-6s%s\n", d.Name, l.Value, d.Unit, rng)
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	repeat   int
	trace    int
	out      string
	scale    float64
}

func realMain(opt options) (resultLine, error) {
	var ws []workload
	if opt.workload == "all" {
		ws = workloads
	} else {
		w, ok := workloadByName(opt.workload)
		if !ok {
			names := make([]string, len(workloads))
			for i, w := range workloads {
				names[i] = w.Name
			}
			return resultLine{}, fmt.Errorf("unknown workload %q (have all, %s)", opt.workload, strings.Join(names, ", "))
		}
		ws = []workload{w}
	}
	if opt.repeat < 0 || opt.seconds <= 0 || opt.scale <= 0 {
		return resultLine{}, errors.New("-seconds must be positive and -repeat not negative")
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	host := hostFingerprint(procs)
	fmt.Printf("host: %s\n", host)

	golden, err := loadGolden()
	if err != nil {
		return resultLine{}, err
	}

	var last resultLine
	allCorrect := true
	// emit prints one run's metrics, writes its report and leaves its
	// result line in last.
	emit := func(r *run, traced bool, title string, defs []metricDef, from func(name string) []float64) error {
		lines, err := summarizeRun(r, defs, from)
		if err != nil {
			return err
		}
		printTable(title, defs, lines)
		if traced {
			printLedgers(r.workload, r.layers)
		}
		checkGolden(r, golden, opt.seed, opt.scale)
		sort.Strings(r.problems)
		for _, p := range r.problems {
			fmt.Printf("CHECK FAILED  %s\n", p)
		}
		correct := len(r.problems) == 0
		allCorrect = allCorrect && correct
		suffix := ""
		if traced {
			suffix = "-trace"
		}
		rep := report{
			Workload: r.workload.Name, Seed: opt.seed, Seconds: opt.seconds, Traced: traced, Host: host,
			Correct: correct, Problems: r.problems, Attempted: r.attempted, Failed: r.failed,
			Rounds: len(r.rounds), Metrics: lines, Exact: r.exact,
		}
		if err := writeJSON(filepath.Join(opt.out, "result-"+r.workload.Name+suffix+".json"), rep); err != nil {
			return err
		}
		last = resultLine{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]unitMetric{}}
		for _, d := range defs {
			last.Metrics[d.Name] = unitMetric{Value: lines[d.Name].Value, Unit: d.Unit}
		}
		return nil
	}

	if opt.trace == 0 || opt.workload == "all" {
		runs, err := measure(ws, opt.seed, opt.seconds, opt.repeat, opt.scale)
		if err != nil {
			return resultLine{}, err
		}
		for _, r := range runs {
			title := fmt.Sprintf("%s: end to end, median over %d rounds, %d attempted, %d failed", r.workload.Name, len(r.rounds), r.attempted, r.failed)
			if err := emit(r, false, title, endToEnd, r.series); err != nil {
				return resultLine{}, err
			}
		}
	}
	if opt.trace != 0 {
		for _, w := range ws {
			r, err := traceRun(w, opt)
			if err != nil {
				return resultLine{}, err
			}
			layer := func(name string) []float64 {
				if v, ok := r.layers[name]; ok {
					return []float64{v}
				}
				return nil
			}
			if err := emit(r, true, w.Name+": per layer, one traced round", perLayer, layer); err != nil {
				return resultLine{}, err
			}
		}
	}
	last.Correct = allCorrect
	return last, nil
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "seed every generated input derives from")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "seconds of measured work per workload")
	flag.IntVar(&opt.repeat, "repeat", 0, "rounds (set-up plus measurement) per workload, at least; 0 keeps each workload's own")
	flag.IntVar(&opt.trace, "trace", 0, "1 adds the traced round and prints the per-layer metrics")
	flag.StringVar(&opt.out, "out", "out", "directory for result and trace files")
	opt.scale = 1
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	res, err := realMain(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
