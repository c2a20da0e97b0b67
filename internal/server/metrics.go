package server

import (
	"math"
	"sort"
	"sync"
	"time"

	"ccolor"
)

// latencyWindow is the per-model sliding window used for percentile
// estimates; old samples fall out once the ring wraps.
const latencyWindow = 4096

// latWindow is one latency ring buffer (len ≤ latencyWindow).
type latWindow struct {
	lat  []time.Duration
	next int
}

func (w *latWindow) observe(lat time.Duration) {
	if len(w.lat) < latencyWindow {
		w.lat = append(w.lat, lat)
		return
	}
	w.lat[w.next] = lat
	w.next = (w.next + 1) % latencyWindow
}

// latencyBucketBounds are the Prometheus histogram upper bounds (seconds)
// for successful-job latencies; an implicit +Inf bucket follows.
var latencyBucketBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// latHist is a fixed-bucket latency histogram (cumulative form is derived
// at exposition time). Unlike the sliding window, it covers the full
// process lifetime, which is what Prometheus rate() queries need.
type latHist struct {
	buckets []uint64 // per-bucket counts; last = overflow (+Inf)
	sum     float64
	count   uint64
}

func (h *latHist) observe(lat time.Duration) {
	if h.buckets == nil {
		h.buckets = make([]uint64, len(latencyBucketBounds)+1)
	}
	sec := lat.Seconds()
	i := sort.SearchFloat64s(latencyBucketBounds, sec)
	if i < len(latencyBucketBounds) && latencyBucketBounds[i] < sec {
		i++ // SearchFloat64s returns the first >= slot; le-buckets are inclusive
	}
	h.buckets[i]++
	h.sum += sec
	h.count++
}

// LatencyHist is the exported histogram view: per-bucket (non-cumulative)
// counts aligned with LatencyBucketBounds plus an overflow bucket. It feeds
// the Prometheus exposition and is omitted from the JSON snapshot.
type LatencyHist struct {
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// LatencyBucketBounds returns the histogram's upper bounds in seconds.
func LatencyBucketBounds() []float64 {
	return append([]float64(nil), latencyBucketBounds...)
}

func (h *latHist) snapshot() LatencyHist {
	out := LatencyHist{Sum: h.sum, Count: h.count}
	if h.buckets != nil {
		out.Buckets = append([]uint64(nil), h.buckets...)
	} else {
		out.Buckets = make([]uint64, len(latencyBucketBounds)+1)
	}
	return out
}

func (w *latWindow) summary() LatencySummary {
	sorted := append([]time.Duration(nil), w.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := LatencySummary{Samples: len(sorted)}
	if len(sorted) == 0 {
		return out
	}
	out.P50 = percentile(sorted, 0.50)
	out.P90 = percentile(sorted, 0.90)
	out.P99 = percentile(sorted, 0.99)
	out.Max = sorted[len(sorted)-1]
	return out
}

// modelStats accumulates per-model counters; guarded by Metrics.mu.
type modelStats struct {
	Jobs      uint64
	Errors    uint64
	CacheHits uint64
	// RoundsTotal / WordsTotal roll the per-job fabric.Ledger telemetry up
	// across all executed (non-cached) jobs of this model.
	RoundsTotal uint64
	WordsTotal  uint64
	// RoundsByPhase / WordsByPhase roll up ledger phase attribution across
	// jobs (rounds and words moved per phase label).
	RoundsByPhase map[string]uint64
	WordsByPhase  map[string]uint64
	// Verified / VerifyFailed count verify-on-solve oracle outcomes for
	// fresh solves (zero unless Config.VerifyOnSolve is set).
	Verified     uint64
	VerifyFailed uint64

	// SessionsActive is the number of worker-pinned solver sessions
	// currently alive for this model; SessionReuses counts solves that ran
	// on an already-warm session (no simulator/workspace construction).
	SessionsActive int64
	SessionReuses  uint64

	// Completed and errored jobs keep separate latency windows: an errored
	// job's latency (often a fast rejection or a slow timeout, neither
	// representative of serving) must not skew the success percentiles.
	okLat  latWindow
	errLat latWindow
	// okHist is the lifetime success-latency histogram behind the
	// Prometheus exposition.
	okHist latHist
}

// LatencySummary holds percentile estimates over the recent-sample window.
type LatencySummary struct {
	Samples int           `json:"samples"`
	P50     time.Duration `json:"p50_ns"`
	P90     time.Duration `json:"p90_ns"`
	P99     time.Duration `json:"p99_ns"`
	Max     time.Duration `json:"max_ns"`
}

// ModelSnapshot is the exported per-model view. Latency covers successful
// jobs only; ErrorLatency covers errored jobs.
type ModelSnapshot struct {
	Jobs          uint64            `json:"jobs"`
	Errors        uint64            `json:"errors"`
	CacheHits     uint64            `json:"cache_hits"`
	CacheHitRate  float64           `json:"cache_hit_rate"`
	RoundsTotal   uint64            `json:"rounds_total"`
	WordsTotal    uint64            `json:"words_total"`
	RoundsByPhase map[string]uint64 `json:"rounds_by_phase,omitempty"`
	WordsByPhase  map[string]uint64 `json:"words_by_phase,omitempty"`
	// Verified / VerifyFailures report the verify-on-solve oracle: fresh
	// solves re-checked (and rejected) by internal/verify. Both stay zero
	// when the mode is off.
	Verified       uint64 `json:"verified"`
	VerifyFailures uint64 `json:"verify_failures"`
	// SessionsActive / SessionReuses report worker-pinned solver sessions:
	// how many are alive, and how many solves ran warm on one. In steady
	// state SessionReuses tracks fresh (non-cached) solves minus the first
	// per worker×model — construction cost is paid at most Workers times
	// per model for the process lifetime.
	SessionsActive int64          `json:"sessions_active"`
	SessionReuses  uint64         `json:"session_reuses"`
	Latency        LatencySummary `json:"latency"`
	ErrorLatency   LatencySummary `json:"error_latency"`
	// LatencyHist is the lifetime success-latency histogram; it backs the
	// Prometheus exposition and stays out of the JSON body (the sliding
	// window percentiles above are the human-facing view).
	LatencyHist LatencyHist `json:"-"`
}

// ProblemSnapshot is one (model × problem) row of job counters. Rows carry
// their own labels (rather than a nested map) so the JSON body and the
// Prometheus exposition both render them in a stable sorted order.
type ProblemSnapshot struct {
	Model     string `json:"model"`
	Problem   string `json:"problem"`
	Jobs      uint64 `json:"jobs"`
	Errors    uint64 `json:"errors"`
	CacheHits uint64 `json:"cache_hits"`
	// SetSizeTotal sums the solution-set sizes of fresh set-problem solves
	// (zero for coloring rows) — a cheap drift canary per problem.
	SetSizeTotal uint64 `json:"set_size_total,omitempty"`
}

// Snapshot is one consistent view of the whole service's metrics.
type Snapshot struct {
	Uptime         time.Duration            `json:"uptime_ns"`
	JobsTotal      uint64                   `json:"jobs_total"`
	Errors         uint64                   `json:"errors_total"`
	Rejected       uint64                   `json:"rejected_total"` // queue-full rejections
	Panics         uint64                   `json:"panics_total"`   // solver panics recovered
	InFlight       int64                    `json:"in_flight"`
	QueueDepth     int                      `json:"queue_depth"`
	QueueCap       int                      `json:"queue_capacity"`
	Workers        int                      `json:"workers"`
	CacheSize      int                      `json:"cache_size"`
	CacheHits      uint64                   `json:"cache_hits"`
	CacheMiss      uint64                   `json:"cache_misses"`
	TracesRetained int                      `json:"traces_retained"`
	PerModel       map[string]ModelSnapshot `json:"per_model"`
	// PerProblem breaks job counters down by (model × problem), sorted by
	// model then problem.
	PerProblem []ProblemSnapshot `json:"per_problem,omitempty"`
}

// problemKey dimensions the per-problem counters.
type problemKey struct {
	model   ccolor.Model
	problem ccolor.Problem
}

// problemStats accumulates per-(model × problem) counters; guarded by
// Metrics.mu. The heavyweight rollups (latency windows, phase attribution)
// stay per-model — the problem dimension carries job accounting only.
type problemStats struct {
	Jobs         uint64
	Errors       uint64
	CacheHits    uint64
	SetSizeTotal uint64
}

// Metrics aggregates service counters; all methods are safe for concurrent
// use by the worker pool and HTTP handlers.
type Metrics struct {
	mu       sync.Mutex
	start    time.Time
	rejected uint64
	panics   uint64
	models   map[ccolor.Model]*modelStats
	problems map[problemKey]*problemStats
}

func newMetrics(now time.Time) *Metrics {
	return &Metrics{
		start:    now,
		models:   make(map[ccolor.Model]*modelStats),
		problems: make(map[problemKey]*problemStats),
	}
}

func (m *Metrics) model(model ccolor.Model) *modelStats {
	s := m.models[model]
	if s == nil {
		s = &modelStats{
			RoundsByPhase: make(map[string]uint64),
			WordsByPhase:  make(map[string]uint64),
		}
		m.models[model] = s
	}
	return s
}

// RecordVerify counts one verify-on-solve oracle outcome.
func (m *Metrics) RecordVerify(model ccolor.Model, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.model(model)
	if ok {
		s.Verified++
	} else {
		s.VerifyFailed++
	}
}

// RecordSessionActive adjusts the model's live worker-session gauge.
func (m *Metrics) RecordSessionActive(model ccolor.Model, delta int64) {
	m.mu.Lock()
	m.model(model).SessionsActive += delta
	m.mu.Unlock()
}

// RecordSessionReuse counts one solve served by an already-warm session.
func (m *Metrics) RecordSessionReuse(model ccolor.Model) {
	m.mu.Lock()
	m.model(model).SessionReuses++
	m.mu.Unlock()
}

// RecordRejected counts a queue-full rejection.
func (m *Metrics) RecordRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// RecordPanic counts one solver panic recovered by a worker.
func (m *Metrics) RecordPanic() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// RecordJob folds one finished job into the rollups.
func (m *Metrics) RecordJob(model ccolor.Model, prob ccolor.Problem, res *Result, err error, lat time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.model(model)
	p := m.problems[problemKey{model, prob}]
	if p == nil {
		p = &problemStats{}
		m.problems[problemKey{model, prob}] = p
	}
	s.Jobs++
	p.Jobs++
	if err != nil {
		s.Errors++
		p.Errors++
		s.errLat.observe(lat)
		return
	}
	s.okLat.observe(lat)
	s.okHist.observe(lat)
	if res.Cached {
		s.CacheHits++
		p.CacheHits++
		return
	}
	p.SetSizeTotal += uint64(res.Report.SetSize)
	s.RoundsTotal += uint64(res.Report.Rounds)
	s.WordsTotal += uint64(res.Report.WordsMoved)
	for phase, ps := range res.Report.PhaseProfile {
		s.RoundsByPhase[phase] += uint64(ps.Rounds)
		s.WordsByPhase[phase] += uint64(ps.Words)
	}
}

// percentile returns the nearest-rank percentile: the ⌈q·N⌉-th smallest
// sample. Rounding the rank up (not truncating an index) keeps P90/P99
// honest on partially filled windows — with 10 samples, P99 is the maximum,
// not the 9th value.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func (m *Metrics) snapshot(now time.Time) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{
		Uptime:   now.Sub(m.start),
		Rejected: m.rejected,
		Panics:   m.panics,
		PerModel: make(map[string]ModelSnapshot, len(m.models)),
	}
	for model, s := range m.models {
		ms := ModelSnapshot{
			Jobs:           s.Jobs,
			Errors:         s.Errors,
			CacheHits:      s.CacheHits,
			RoundsTotal:    s.RoundsTotal,
			WordsTotal:     s.WordsTotal,
			Verified:       s.Verified,
			VerifyFailures: s.VerifyFailed,
			SessionsActive: s.SessionsActive,
			SessionReuses:  s.SessionReuses,
			Latency:        s.okLat.summary(),
			ErrorLatency:   s.errLat.summary(),
			LatencyHist:    s.okHist.snapshot(),
		}
		if s.Jobs > 0 {
			ms.CacheHitRate = float64(s.CacheHits) / float64(s.Jobs)
		}
		if len(s.RoundsByPhase) > 0 {
			ms.RoundsByPhase = make(map[string]uint64, len(s.RoundsByPhase))
			for k, v := range s.RoundsByPhase {
				ms.RoundsByPhase[k] = v
			}
		}
		if len(s.WordsByPhase) > 0 {
			ms.WordsByPhase = make(map[string]uint64, len(s.WordsByPhase))
			for k, v := range s.WordsByPhase {
				ms.WordsByPhase[k] = v
			}
		}
		out.PerModel[string(model)] = ms
		out.JobsTotal += s.Jobs
		out.Errors += s.Errors
	}
	out.PerProblem = make([]ProblemSnapshot, 0, len(m.problems))
	for k, p := range m.problems {
		out.PerProblem = append(out.PerProblem, ProblemSnapshot{
			Model:        string(k.model),
			Problem:      string(k.problem),
			Jobs:         p.Jobs,
			Errors:       p.Errors,
			CacheHits:    p.CacheHits,
			SetSizeTotal: p.SetSizeTotal,
		})
	}
	sort.Slice(out.PerProblem, func(i, j int) bool {
		a, b := out.PerProblem[i], out.PerProblem[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		return a.Problem < b.Problem
	})
	return out
}
