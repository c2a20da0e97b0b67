package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one printed metric and its unit. The lists below must
// match BENCHMARK.json; the smoke test checks that they do.
type metricDef struct{ name, unit string }

// endToEnd is printed with -trace 0 on every workload.
var endToEnd = []metricDef{
	{"solve_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"model_rounds", "count"},
	{"model_words", "count"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"ok_frac", "ratio"},
}

// layerMetrics is printed with -trace 1 on every workload, ahead of the
// per-phase metrics.
var layerMetrics = []metricDef{
	{"graph.build_s", "s"},
	{"graph.palettes_s", "s"},
	{"hashing.fingerprint_s", "s"},
	{"engine.cold_solve_s", "s"},
	{"engine.allocs_per_solve", "count"},
	{"engine.bytes_per_solve", "bytes"},
	{"verify.check_s", "s"},
	{"fabric.max_node_load", "words"},
	{"fabric.peak_round_words", "words"},
	{"core.workspace_words", "words"},
	{"lowspace.peak_machine_words", "words"},
	{"lowspace.sublinear_bound", "words"},
	{"trace.solve_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.model_rounds", "count"},
	{"trace.model_words", "count"},
	{"trace.span_rounds", "count"},
	{"trace.span_words", "count"},
	{"trace.samples", "count"},
	{"server.worker_ms_hit.p50", "ms"},
	{"server.worker_ms_hit.p99", "ms"},
	{"server.worker_ms_miss.p50", "ms"},
	{"server.worker_ms_miss.p99", "ms"},
	{"server.outside_worker_ms.scenario", "ms"},
	{"server.outside_worker_ms.edges", "ms"},
	{"server.outside_worker_ms.full", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.session_reuses", "count"},
	{"server.rejected", "count"},
	{"serve.build_s", "s"},
	{"serve.fingerprint_s", "s"},
	{"serve.solve_s.cclique", "s"},
	{"serve.solve_s.mpc", "s"},
	{"serve.solve_s.lowspace", "s"},
}

// phases are the telemetry span labels the traced runs report, each as
// phase.<label>.{s,rounds,words} with ':' written as '-'. Together they
// cover every label the three workloads emit; a workload that never enters
// a phase reports it as 0.
var phases = []string{
	"partition:select",
	"partition:announce",
	"collect:gather",
	"collect:notify",
	"collect:scatter",
	"control",
	"lowspace:select",
	"lowspace:notify",
	"lowspace:announce",
	"mis:select",
	"mis:announce",
}

// phaseMetric is the metric name of one phase statistic.
func phaseMetric(phase, stat string) string {
	return "phase." + strings.ReplaceAll(phase, ":", "-") + "." + stat
}

// perLayer is the full -trace 1 metric list.
func perLayer() []metricDef {
	out := append([]metricDef(nil), layerMetrics...)
	for _, p := range phases {
		out = append(out,
			metricDef{phaseMetric(p, "s"), "s"},
			metricDef{phaseMetric(p, "rounds"), "count"},
			metricDef{phaseMetric(p, "words"), "count"})
	}
	return out
}

// quantile is the linear-interpolation quantile of xs (0 ≤ q ≤ 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the highest percentile up to p99 that has at least ten samples
// above it, and at least the median: p99 from 1000 samples on, the median
// below 20.
func tail(xs []float64) float64 {
	q := 1 - 10/float64(max(len(xs), 1))
	return quantile(xs, min(0.99, max(0.5, q)))
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc, in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
