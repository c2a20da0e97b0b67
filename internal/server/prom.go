package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders one metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). Every family carries HELP and TYPE
// lines, per-model series are label-dimensioned on {model="..."} (plus
// {model,phase} for the ledger phase attribution and {model,problem} for
// the registry-problem job counters), and map iteration is sorted so
// successive scrapes emit series in a stable order.
func WritePrometheus(w io.Writer, snap Snapshot) {
	pw := &promWriter{w: w}

	pw.family("ccserve_uptime_seconds", "gauge", "Seconds since the server started.")
	pw.sample("ccserve_uptime_seconds", "", snap.Uptime.Seconds())

	pw.family("ccserve_workers", "gauge", "Size of the solver worker pool.")
	pw.sample("ccserve_workers", "", float64(snap.Workers))

	pw.family("ccserve_in_flight", "gauge", "Jobs admitted and not yet finished.")
	pw.sample("ccserve_in_flight", "", float64(snap.InFlight))

	pw.family("ccserve_queue_depth", "gauge", "Jobs waiting in the admission queue.")
	pw.sample("ccserve_queue_depth", "", float64(snap.QueueDepth))

	pw.family("ccserve_queue_capacity", "gauge", "Admission queue capacity.")
	pw.sample("ccserve_queue_capacity", "", float64(snap.QueueCap))

	pw.family("ccserve_rejected_jobs_total", "counter", "Jobs rejected because the queue was full.")
	pw.sample("ccserve_rejected_jobs_total", "", float64(snap.Rejected))

	pw.family("ccserve_panics_total", "counter", "Solver panics recovered by the worker pool; each failed its job.")
	pw.sample("ccserve_panics_total", "", float64(snap.Panics))

	pw.family("ccserve_cache_entries", "gauge", "Result-cache entries currently resident.")
	pw.sample("ccserve_cache_entries", "", float64(snap.CacheSize))

	pw.family("ccserve_cache_lookups_total", "counter", "Result-cache lookups by outcome.")
	pw.sample("ccserve_cache_lookups_total", `result="hit"`, float64(snap.CacheHits))
	pw.sample("ccserve_cache_lookups_total", `result="miss"`, float64(snap.CacheMiss))

	pw.family("ccserve_traces_retained", "gauge", "Telemetry traces currently retained in the trace store.")
	pw.sample("ccserve_traces_retained", "", float64(snap.TracesRetained))

	models := make([]string, 0, len(snap.PerModel))
	for m := range snap.PerModel {
		models = append(models, m)
	}
	sort.Strings(models)

	eachModel := func(name, typ, help string, value func(ModelSnapshot) float64) {
		pw.family(name, typ, help)
		for _, m := range models {
			pw.sample(name, modelLabel(m), value(snap.PerModel[m]))
		}
	}

	eachModel("ccserve_jobs_total", "counter", "Jobs finished per execution model (including errors and cache hits).",
		func(ms ModelSnapshot) float64 { return float64(ms.Jobs) })
	eachModel("ccserve_job_errors_total", "counter", "Jobs that finished with an error, per model.",
		func(ms ModelSnapshot) float64 { return float64(ms.Errors) })
	eachModel("ccserve_cache_hits_total", "counter", "Jobs served from the result cache, per model.",
		func(ms ModelSnapshot) float64 { return float64(ms.CacheHits) })
	eachModel("ccserve_rounds_total", "counter", "Communication rounds executed by fresh solves, per model.",
		func(ms ModelSnapshot) float64 { return float64(ms.RoundsTotal) })
	eachModel("ccserve_words_moved_total", "counter", "Words moved across the fabric by fresh solves, per model.",
		func(ms ModelSnapshot) float64 { return float64(ms.WordsTotal) })
	eachModel("ccserve_verified_total", "counter", "Fresh solves checked by the verify-on-solve oracle, per model.",
		func(ms ModelSnapshot) float64 { return float64(ms.Verified) })
	eachModel("ccserve_verify_failures_total", "counter", "Verify-on-solve oracle rejections, per model.",
		func(ms ModelSnapshot) float64 { return float64(ms.VerifyFailures) })
	eachModel("ccserve_session_reuses_total", "counter", "Solves served by an already-warm worker session, per model.",
		func(ms ModelSnapshot) float64 { return float64(ms.SessionReuses) })
	eachModel("ccserve_sessions_active", "gauge", "Worker-pinned solver sessions currently alive, per model.",
		func(ms ModelSnapshot) float64 { return float64(ms.SessionsActive) })

	eachProblem := func(name, typ, help string, value func(ProblemSnapshot) float64) {
		pw.family(name, typ, help)
		for _, ps := range snap.PerProblem {
			pw.sample(name, modelLabel(ps.Model)+`,problem="`+ps.Problem+`"`, value(ps))
		}
	}
	eachProblem("ccserve_problem_jobs_total", "counter", "Jobs finished per (model, registry problem), including errors and cache hits.",
		func(ps ProblemSnapshot) float64 { return float64(ps.Jobs) })
	eachProblem("ccserve_problem_job_errors_total", "counter", "Jobs that finished with an error, per (model, problem).",
		func(ps ProblemSnapshot) float64 { return float64(ps.Errors) })
	eachProblem("ccserve_problem_cache_hits_total", "counter", "Jobs served from the result cache, per (model, problem).",
		func(ps ProblemSnapshot) float64 { return float64(ps.CacheHits) })
	eachProblem("ccserve_problem_set_size_total", "counter", "Solution-set sizes summed over fresh set-problem solves, per (model, problem).",
		func(ps ProblemSnapshot) float64 { return float64(ps.SetSizeTotal) })

	pw.family("ccserve_phase_rounds_total", "counter", "Communication rounds attributed to each algorithm phase, per model.")
	for _, m := range models {
		writePhaseSeries(pw, "ccserve_phase_rounds_total", m, snap.PerModel[m].RoundsByPhase)
	}
	pw.family("ccserve_phase_words_total", "counter", "Words moved attributed to each algorithm phase, per model.")
	for _, m := range models {
		writePhaseSeries(pw, "ccserve_phase_words_total", m, snap.PerModel[m].WordsByPhase)
	}

	// Sliding-window percentiles are exported as gauges: they describe the
	// recent sample window, not a monotone accumulation.
	eachModel("ccserve_job_latency_window_p50_seconds", "gauge", "50th percentile of successful-job latency over the recent sample window.",
		func(ms ModelSnapshot) float64 { return ms.Latency.P50.Seconds() })
	eachModel("ccserve_job_latency_window_p90_seconds", "gauge", "90th percentile of successful-job latency over the recent sample window.",
		func(ms ModelSnapshot) float64 { return ms.Latency.P90.Seconds() })
	eachModel("ccserve_job_latency_window_p99_seconds", "gauge", "99th percentile of successful-job latency over the recent sample window.",
		func(ms ModelSnapshot) float64 { return ms.Latency.P99.Seconds() })

	pw.family("ccserve_job_latency_seconds", "histogram", "Successful-job latency over the process lifetime, per model.")
	bounds := LatencyBucketBounds()
	for _, m := range models {
		h := snap.PerModel[m].LatencyHist
		var cum uint64
		for i, b := range bounds {
			if i < len(h.Buckets) {
				cum += h.Buckets[i]
			}
			pw.sample("ccserve_job_latency_seconds_bucket", modelLabel(m)+`,le="`+formatBound(b)+`"`, float64(cum))
		}
		pw.sample("ccserve_job_latency_seconds_bucket", modelLabel(m)+`,le="+Inf"`, float64(h.Count))
		pw.sample("ccserve_job_latency_seconds_sum", modelLabel(m), h.Sum)
		pw.sample("ccserve_job_latency_seconds_count", modelLabel(m), float64(h.Count))
	}
}

// WriteHealthPrometheus renders the health probe's gauge set: liveness plus
// the queue/worker occupancy a load balancer or autoscaler keys off.
func WriteHealthPrometheus(w io.Writer, snap Snapshot, draining bool) {
	pw := &promWriter{w: w}
	up := 1.0
	if draining {
		up = 0
	}
	pw.family("ccserve_up", "gauge", "1 while the server accepts jobs, 0 once draining.")
	pw.sample("ccserve_up", "", up)
	pw.family("ccserve_workers", "gauge", "Size of the solver worker pool.")
	pw.sample("ccserve_workers", "", float64(snap.Workers))
	pw.family("ccserve_in_flight", "gauge", "Jobs admitted and not yet finished.")
	pw.sample("ccserve_in_flight", "", float64(snap.InFlight))
	pw.family("ccserve_queue_depth", "gauge", "Jobs waiting in the admission queue.")
	pw.sample("ccserve_queue_depth", "", float64(snap.QueueDepth))
	pw.family("ccserve_queue_capacity", "gauge", "Admission queue capacity.")
	pw.sample("ccserve_queue_capacity", "", float64(snap.QueueCap))
}

func writePhaseSeries(pw *promWriter, name, model string, byPhase map[string]uint64) {
	phases := make([]string, 0, len(byPhase))
	for p := range byPhase {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		pw.sample(name, modelLabel(model)+`,phase="`+p+`"`, float64(byPhase[p]))
	}
}

func modelLabel(model string) string {
	return `model="` + model + `"`
}

// formatBound renders a histogram upper bound the way Prometheus clients do:
// shortest decimal round-trip, no exponent for these magnitudes.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// promWriter emits exposition lines; errors are deliberately ignored (the
// HTTP layer surfaces broken connections on its own).
type promWriter struct {
	w io.Writer
}

func (p *promWriter) family(name, typ, help string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(p.w, "%s{%s} %s\n", name, labels, formatValue(v))
	} else {
		fmt.Fprintf(p.w, "%s %s\n", name, formatValue(v))
	}
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
