// Command perfbench is the repository benchmark. One invocation runs one
// named workload and prints, as the last line of standard output, a JSON
// object with the keys correct, attempted, failed and metrics.
//
//	perfbench -workload cclique-gnp64k -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it measures the end-to-end metrics (tracing off); with
// -trace 1 it makes a separate traced run and reports the per-layer split.
// Every layer is timed from outside, around calls into its public
// functions, or read from the program's own public outputs (Report,
// Report.Telemetry, ccserve's response headers and /metrics). BENCHMARK.json
// lists the metrics; README.md in this directory documents them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the command line to a workload.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	ccserve string
	// nodes overrides the solve workloads' instance size and requests the
	// serve-mix list length; zero keeps the workload's own size. Only the
	// smoke test sets them, to run every workload in seconds.
	nodes    int
	requests int
}

// run is what a workload measures: counts and checks plus the metric values
// it produced. Metrics a workload does not exercise are reported as 0.
type run struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	values    map[string]float64
}

func newRun() *run { return &run{correct: true, values: map[string]float64{}} }

// fail marks the run incorrect and keeps the reason for standard error.
func (r *run) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64) { r.values[name] = v }

var workloads = map[string]func(cfg config) (*run, error){
	"cclique-gnp64k":       cliqueGNP,
	"lowspace-powerlaw64k": lowspacePowerlaw,
	"serve-mix":            serveMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		ccserve  = flag.String("ccserve", ".bench_build/ccserve", "ccserve binary for serve-mix")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {%s}, -trace 0|1, -seconds > 0\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, ccserve: *ccserve}
	r, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	out := render(r, cfg.trace)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// render builds the printed result: the end-to-end metrics, or with trace
// the per-layer ones.
func render(r *run, trace bool) result {
	out := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	names := endToEnd
	if trace {
		names = perLayer()
	}
	for _, m := range names {
		out.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}
	return out
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
