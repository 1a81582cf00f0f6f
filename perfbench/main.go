// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload in its own process, measures it for a
// fixed time, checks every output, and prints one JSON result line:
//
//	perfbench --workload des_paper --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - des_paper: every expt scenario, no-adapt and adaptive, plus
//     scenario 1's monitor-only run (what `gridsim -scenario all`
//     simulates) on the flat coordinator.
//   - des_world: a 100-cluster x 20-node sharded DES world whose tree
//     evicts almost every node (the requirement-sync stress case).
//   - svc_mix: an in-process satind (4 x 16 node pool, recorder into a
//     recdb store, TCP hub) driven over TCP by two closed-loop clients,
//     one submitting wide 48-node fib jobs, one tiny single-leaf jobs.
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a separate traced run
// (CPU profile attribution by package, obs counter deltas, spans
// around the benchmark's own calls, and direct layer probes), and the
// full trace is written under .bench_build/trace/.
//
// run.sh builds this package from source and runs it; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metricDef is one reported metric: its name, unit and, for end-to-end
// metrics, which direction is better and how far it may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics of an untraced run. Every workload
// reports every one of them; README.md gives each workload's reading.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"step_p90_ms", "ms", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_item", "ms", "lower", 0.25},
	{"ok_frac", "frac", "higher", 0.01},
	{"max_rss_mb", "MB", "lower", 0.2},
}

// workloads maps each workload name to its runner and the reason it
// exists (the reasons are repeated in BENCHMARK.json and README.md).
var workloads = map[string]struct {
	run func(cfg runConfig) (*outcome, error)
	why string
}{
	"des_paper": {runDESPaper, "the paper's evaluation suite on the flat coordinator: small worlds where the sharded tree and requirement sync do no work"},
	"des_world": {runDESWorld, "a 100-cluster sharded world whose growing blacklist makes the requirement sync dominate the simulator's CPU"},
	"svc_mix":   {runSvcMix, "satind over TCP with wide 48-node jobs (data plane) and tiny one-leaf jobs (control plane) from two closed-loop clients"},
}

// runConfig is what every workload runner receives.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outcome is one run's result before it is printed.
type outcome struct {
	attempted, failed int
	checks            []string // one line per failed check
	metrics           map[string]float64
	trace             *traceDoc // traced runs only
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// fail counts one failed operation and remembers why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

type printedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]printedMetric `json:"metrics"`
}

func main() {
	var (
		wl       = flag.String("workload", "", "des_paper | des_world | svc_mix")
		seed     = flag.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
		seconds  = flag.Int("seconds", 30, "measurement time per run")
		traceOn  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		describe = flag.Bool("describe", false, "print the workload and metric tables as BENCHMARK.json fragments and exit")
	)
	flag.Parse()
	if *describe {
		printDescription()
		return
	}
	w, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (des_paper | des_world | svc_mix), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{workload: *wl, seed: *seed, seconds: float64(*seconds), trace: *traceOn == 1}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	if out.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *wl)
		os.Exit(1)
	}
	out.metrics["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)

	defs := endToEnd
	if cfg.trace {
		out.metrics["fail_frac"] = float64(out.failed) / float64(out.attempted)
		defs = perLayer()
		if err := writeTrace(cfg, out.trace); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
	}
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]printedMetric, len(defs)),
	}
	for _, d := range defs {
		// A per-layer metric the workload does not exercise reads 0.
		line.Metrics[d.Name] = printedMetric{Value: out.metrics[d.Name], Unit: d.Unit}
	}
	for _, c := range out.checks {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if !line.Correct {
		os.Exit(1)
	}
}

// printDescription writes the workload, end-to-end and per-layer tables
// in BENCHMARK.json's shape, so the file can be regenerated from the
// definitions the program actually reports.
func printDescription() {
	type wdesc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wdesc
	for name, w := range workloads {
		ws = append(ws, wdesc{name, w.why})
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	var ls []layer
	for _, d := range perLayer() {
		ls = append(ls, layer{d.Name, d.Unit, d.Better})
	}
	enc, _ := json.MarshalIndent(map[string]any{
		"workloads": ws, "end_to_end": endToEnd, "per_layer": ls,
	}, "", "  ")
	fmt.Println(string(enc))
}
