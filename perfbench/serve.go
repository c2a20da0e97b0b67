package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccolor/internal/engine"
	"ccolor/internal/graph"
	"ccolor/internal/problem"
	"ccolor/internal/scenario"
	"ccolor/internal/telemetry"
	"ccolor/internal/verify"
)

const (
	// serverStarts is how many times a run starts ccserve; setup_s is the
	// median time until /healthz answers. The last server serves the list.
	serverStarts = 11
	// healthPoll is the /healthz polling interval, fine against the few
	// milliseconds a start takes.
	healthPoll = 200 * time.Microsecond
	// serveConns is the number of keep-alive client connections, and
	// serveWorkers ccserve's worker count and GOMAXPROCS: the benchmark box
	// has two vCPUs.
	serveConns   = 2
	serveWorkers = 2
)

// expected is the in-process outcome of one distinct request.
type expected struct {
	failed bool
	rounds int
	words  int64
	// solution is the problem's solution fingerprint.
	solution uint64
}

// outcome is what the client saw for one list entry.
type outcome struct {
	status    int
	latency   time.Duration // send to last body byte
	workerUs  float64       // X-CCServe-Elapsed-Us
	cached    bool          // X-CCServe-Cache: hit
	async     bool
	body      []byte
	transport error
	trace     *telemetry.Trace
}

func serveMix(cfg config) (*run, error) {
	length := cfg.requests
	if length <= 0 {
		length = int(cfg.seconds * requestsPerSecond)
	}
	specs, list := buildMix(cfg.seed, max(length, 1))
	r := newRun()

	// In-process pass over the distinct requests: the expected result of
	// each, and the build / fingerprint / solve split of one request.
	bodies, want, err := referencePass(cfg, r, specs, list)
	if err != nil {
		return nil, err
	}

	var setup []float64
	var srv *ccserve
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < serverStarts; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		srv, d, err = startCCServe(cfg.ccserve)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
	}
	r.set("setup_s", median(setup))

	// In the traced run the first request of each distinct instance goes
	// async, so its job's telemetry trace can be fetched by job id.
	firstSeen := make([]bool, len(specs))
	asyncAt := make([]bool, len(list))
	for i, e := range list {
		if cfg.trace && !firstSeen[e.spec] {
			asyncAt[i] = true
		}
		firstSeen[e.spec] = true
	}

	outs := make([]outcome, len(list))
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					return
				}
				e := list[i]
				if asyncAt[i] {
					outs[i] = srv.solveAsync(client, bodies.async[e.spec])
				} else {
					outs[i] = srv.solve(client, bodies.get(e))
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	snap, err := srv.metrics(client)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss)
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}

	summarize(cfg, r, specs, list, want, outs, wall)
	r.set("server.cache_hit_ratio", float64(snap.CacheHits)/float64(max(1, snap.CacheHits+snap.CacheMiss)))
	r.set("server.rejected", float64(snap.Rejected))
	var reuses uint64
	for _, m := range snap.PerModel {
		reuses += m.SessionReuses
	}
	r.set("server.session_reuses", float64(reuses))
	return r, nil
}

// requestBodies holds every encoded request body of the list.
type requestBodies struct {
	summary, full, async [][]byte
}

func (b *requestBodies) get(e mixEntry) []byte {
	if e.full {
		return b.full[e.spec]
	}
	return b.summary[e.spec]
}

// referencePass solves every distinct request in process, one session per
// model as a ccserve worker keeps them, and encodes the request bodies.
// Each solution is checked by its problem's own oracle; a failed solve is
// expected to fail on the server too.
func referencePass(cfg config, r *run, specs []instanceSpec, list []mixEntry) (*requestBodies, []expected, error) {
	runtime.GOMAXPROCS(serveWorkers)
	bodies := &requestBodies{
		summary: make([][]byte, len(specs)),
		full:    make([][]byte, len(specs)),
		async:   make([][]byte, len(specs)),
	}
	wantFull := make([]bool, len(specs))
	for _, e := range list {
		wantFull[e.spec] = wantFull[e.spec] || e.full
	}
	want := make([]expected, len(specs))
	sessions := map[engine.Model]*engine.Session{}
	defer func() {
		for _, s := range sessions {
			s.Release()
		}
	}()
	var (
		build, palettes, total, fingerprint, check, overhead, allocs, bytesAlloc []float64
		cold                                                                     []float64
		solve                                                                    = map[engine.Model][]float64{}
		mem                                                                      engine.Report
	)
	for i, s := range specs {
		spec, err := scenario.Lookup(s.scenario)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		g, err := spec.Graph(s.n, s.seed)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		inst, err := instance(s, g)
		if err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		verify.InstanceFingerprint(inst)
		t3 := time.Now()
		build = append(build, t1.Sub(t0).Seconds())
		palettes = append(palettes, t2.Sub(t1).Seconds())
		total = append(total, t2.Sub(t0).Seconds())
		fingerprint = append(fingerprint, t3.Sub(t2).Seconds())

		if bodies.summary[i], err = body(s, g, false, false); err != nil {
			return nil, nil, err
		}
		if wantFull[i] {
			if bodies.full[i], err = body(s, g, true, false); err != nil {
				return nil, nil, err
			}
		}
		if cfg.trace {
			if bodies.async[i], err = body(s, g, wantFull[i], true); err != nil {
				return nil, nil, err
			}
		}

		sess := sessions[s.model]
		warm := sess != nil
		if !warm {
			if sess, err = engine.NewSession(s.model); err != nil {
				return nil, nil, err
			}
			sessions[s.model] = sess
		}
		opts := &engine.Options{Model: s.model, Problem: s.problem}
		var m0, m1 runtime.MemStats
		if cfg.trace && warm {
			runtime.ReadMemStats(&m0)
		}
		t4 := time.Now()
		rep, err := sess.Solve(inst, opts)
		d := time.Since(t4).Seconds()
		if cfg.trace && warm {
			runtime.ReadMemStats(&m1)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
			bytesAlloc = append(bytesAlloc, float64(m1.TotalAlloc-m0.TotalAlloc))
		}
		if err != nil {
			// The session is retired after a failed solve, as ccserve does.
			sess.Release()
			delete(sessions, s.model)
			want[i] = expected{failed: true}
			fmt.Fprintf(os.Stderr, "perfbench: expected failure: %s: %v\n", s, err)
			continue
		}
		if warm {
			solve[s.model] = append(solve[s.model], d)
		} else {
			cold = append(cold, d)
		}
		p, err := problem.Lookup(string(s.problem))
		if err != nil {
			return nil, nil, err
		}
		sol := &problem.Solution{Coloring: rep.Coloring, Set: rep.Set, Beta: rep.Beta}
		t5 := time.Now()
		if p.Output == problem.OutputColoring {
			err = verify.Full(inst, rep.Coloring)
		} else {
			err = p.Check(inst, sol)
		}
		check = append(check, time.Since(t5).Seconds())
		if err != nil {
			r.fail("in-process %s: %v", s, err)
		}
		want[i] = expected{rounds: rep.Rounds, words: rep.WordsMoved, solution: p.Fingerprint(sol)}
		mem.MaxNodeLoad = max(mem.MaxNodeLoad, rep.MaxNodeLoad)
		mem.Memory.PeakRoundWords = max(mem.Memory.PeakRoundWords, rep.Memory.PeakRoundWords)
		mem.Memory.WorkspaceWords = max(mem.Memory.WorkspaceWords, rep.Memory.WorkspaceWords)
		mem.Memory.PeakMachineWords = max(mem.Memory.PeakMachineWords, rep.Memory.PeakMachineWords)
		mem.Memory.SublinearBound = max(mem.Memory.SublinearBound, rep.Memory.SublinearBound)

		if cfg.trace {
			// Tracing overhead: the same warm solve again with Options.Trace.
			traced := *opts
			traced.Trace = true
			t6 := time.Now()
			trep, err := sess.Solve(inst, &traced)
			if err != nil || trep.Rounds != rep.Rounds || trep.WordsMoved != rep.WordsMoved {
				r.fail("traced in-process %s disagrees with the untraced solve (%v)", s, err)
			} else if warm {
				overhead = append(overhead, time.Since(t6).Seconds()-d)
			}
		}
	}
	r.set("serve.build_s", median(total))
	r.set("serve.fingerprint_s", median(fingerprint))
	for _, m := range mixModels {
		r.set("serve.solve_s."+string(m), median(solve[m]))
	}
	r.set("graph.build_s", median(build))
	r.set("graph.palettes_s", median(palettes))
	r.set("hashing.fingerprint_s", median(fingerprint))
	r.set("engine.cold_solve_s", median(cold))
	r.set("engine.allocs_per_solve", median(allocs))
	r.set("engine.bytes_per_solve", median(bytesAlloc))
	r.set("verify.check_s", median(check))
	r.set("trace.overhead_s", median(overhead))
	setMemory(r, &mem)
	return bodies, want, nil
}

// summarize checks every response against the in-process result and
// computes the end-to-end and server metrics.
func summarize(cfg config, r *run, specs []instanceSpec, list []mixEntry, want []expected, outs []outcome, wall time.Duration) {
	var (
		latency, missWorker, hitWorker []float64
		outside                        = map[string][]float64{}
		rounds, words                  float64
		traces                         []*telemetry.Trace
		traceRounds, traceWords        float64
	)
	for i, o := range outs {
		e := list[i]
		s := specs[e.spec]
		r.attempted++
		if !responseOK(r, s, want[e.spec], e.full, o) {
			r.failed++
			continue
		}
		var resp wireResponse
		_ = json.Unmarshal(o.body, &resp) // well-formedness was checked by responseOK
		rounds += float64(resp.Rounds)
		words += float64(resp.WordsMoved)
		if o.cached {
			hitWorker = append(hitWorker, o.workerUs/1000)
		} else {
			missWorker = append(missWorker, o.workerUs/1000)
		}
		if o.trace != nil {
			traces = append(traces, o.trace)
			traceRounds += float64(resp.Rounds)
			traceWords += float64(resp.WordsMoved)
		}
		if o.async {
			continue // poll time is not request latency
		}
		ms := o.latency.Seconds() * 1000
		latency = append(latency, ms)
		class := "scenario"
		switch {
		case s.edges:
			class = "edges"
		case e.full:
			class = "full"
		}
		outside[class] = append(outside[class], ms-o.workerUs/1000)
	}
	ok := r.attempted - r.failed
	r.set("ok_frac", float64(ok)/float64(r.attempted))
	r.set("throughput_rps", float64(ok)/wall.Seconds())
	r.set("latency_p50_ms", median(latency))
	r.set("latency_p99_ms", tail(latency))
	r.set("solve_s", median(missWorker)/1000)
	if ok > 0 {
		r.set("model_rounds", rounds/float64(ok))
		r.set("model_words", words/float64(ok))
	}
	r.set("server.worker_ms_hit.p50", median(hitWorker))
	r.set("server.worker_ms_hit.p99", quantile(hitWorker, 0.99))
	r.set("server.worker_ms_miss.p50", median(missWorker))
	r.set("server.worker_ms_miss.p99", quantile(missWorker, 0.99))
	for class, xs := range outside {
		r.set("server.outside_worker_ms."+class, median(xs))
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix %d requests, %d distinct, %d ok, %d latency samples, %d traces\n",
		len(list), len(specs), ok, len(latency), len(traces))
	if cfg.trace {
		// Phase totals over every collected job trace.
		var spanRounds, spanWords int64
		var total []float64
		phaseS := map[string]float64{}
		for _, tr := range traces {
			for p, d := range phaseTotals(tr) {
				phaseS[p] += d
			}
			sr, sw := setSpanCounts(r, tr)
			spanRounds += sr
			spanWords += sw
			total = append(total, tr.Total.Seconds())
		}
		for p, d := range phaseS {
			r.set(phaseMetric(p, "s"), d)
		}
		r.set("trace.solve_s", median(total))
		r.set("trace.span_rounds", float64(spanRounds))
		r.set("trace.span_words", float64(spanWords))
		r.set("trace.model_rounds", traceRounds)
		r.set("trace.model_words", traceWords)
		r.set("trace.samples", float64(len(traces)))
	}
}

// responseOK checks one response: a 200 whose body matches the in-process
// solve of the same request. A server failure on a request whose in-process
// solve failed too is a failed request, not a wrong answer.
func responseOK(r *run, s instanceSpec, w expected, full bool, o outcome) bool {
	if o.transport != nil || o.status != http.StatusOK {
		if !w.failed {
			fmt.Fprintf(os.Stderr, "perfbench: %s: status %d %v %s\n", s, o.status, o.transport, bytes.TrimSpace(o.body))
		}
		return false
	}
	var resp wireResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		r.fail("%s: malformed body: %v", s, err)
		return false
	}
	if w.failed {
		r.fail("%s: server answered a request the in-process solve fails", s)
		return false
	}
	if resp.Model != string(s.model) || resp.Problem != string(s.problem) || resp.N != s.n ||
		resp.Rounds != w.rounds || resp.WordsMoved != w.words {
		r.fail("%s: got %s/%s n=%d rounds/words %d/%d, in-process %d/%d",
			s, resp.Model, resp.Problem, resp.N, resp.Rounds, resp.WordsMoved, w.rounds, w.words)
		return false
	}
	if !full {
		return true
	}
	p, err := problem.Lookup(string(s.problem))
	if err != nil {
		r.fail("%s: %v", s, err)
		return false
	}
	sol := &problem.Solution{Coloring: graph.Coloring(resp.Coloring)}
	if p.Output == problem.OutputSet {
		sol.Set = make([]bool, s.n)
		for _, v := range resp.Set {
			if v < 0 || int(v) >= s.n {
				r.fail("%s: set member %d out of range", s, v)
				return false
			}
			sol.Set[v] = true
		}
	}
	if p.Fingerprint(sol) != w.solution {
		r.fail("%s: solution differs from the in-process solve", s)
		return false
	}
	return true
}

// ccserve is one running server process.
type ccserve struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited and waitErr is set
	// waitErr is the process's exit error, read after done is closed.
	waitErr error
}

// startCCServe starts ccserve on a free loopback port and returns once
// /healthz answers, with the time that took.
func startCCServe(bin string) (*ccserve, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(serveWorkers))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serveWorkers))
	cmd.Stderr = os.Stderr
	// ccserve dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start ccserve: %w", err)
	}
	s := &ccserve{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("ccserve exited before answering /healthz: %v", s.waitErr)
		case <-time.After(healthPoll):
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, errors.New("ccserve did not answer /healthz within 30s")
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if it does not. Stopping a stopped server returns its exit error again.
func (s *ccserve) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.done:
		return s.waitErr
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("ccserve did not drain within 30s")
	}
}

// solve sends one synchronous request.
func (s *ccserve) solve(client *http.Client, reqBody []byte) outcome {
	t0 := time.Now()
	resp, err := client.Post(s.base+"/v1/solve", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return outcome{transport: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := outcome{status: resp.StatusCode, latency: time.Since(t0), body: b, transport: err}
	setWorkerHeaders(&o, resp.Header)
	return o
}

// solveAsync submits one async request, polls its job until it finishes,
// and fetches the job's telemetry trace.
func (s *ccserve) solveAsync(client *http.Client, reqBody []byte) outcome {
	o := outcome{async: true}
	resp, err := client.Post(s.base+"/v1/solve", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		o.transport = err
		return o
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		o.status, o.transport = resp.StatusCode, err
		return o
	}
	for {
		var env struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		resp, err := client.Get(s.base + "/v1/jobs/" + sub.JobID)
		if err != nil {
			o.transport = err
			return o
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			o.transport = err
			return o
		}
		switch env.State {
		case "done":
			o.status, o.body = http.StatusOK, env.Result
			setWorkerHeaders(&o, resp.Header)
		case "failed":
			o.status, o.body = http.StatusUnprocessableEntity, []byte(env.Error)
			return o
		default:
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	resp, err = client.Get(s.base + "/v1/jobs/" + sub.JobID + "/trace")
	if err != nil {
		o.transport = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // served from cache: no trace
		return o
	}
	var env struct {
		Trace *telemetry.Trace `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err == nil {
		o.trace = env.Trace
	}
	return o
}

func setWorkerHeaders(o *outcome, h http.Header) {
	o.cached = h.Get("X-CCServe-Cache") == "hit"
	o.workerUs, _ = strconv.ParseFloat(h.Get("X-CCServe-Elapsed-Us"), 64)
}

// serverSnapshot is the part of ccserve's GET /metrics body the benchmark
// reads.
type serverSnapshot struct {
	Rejected  uint64 `json:"rejected_total"`
	CacheHits uint64 `json:"cache_hits"`
	CacheMiss uint64 `json:"cache_misses"`
	PerModel  map[string]struct {
		SessionReuses uint64 `json:"session_reuses"`
	} `json:"per_model"`
}

func (s *ccserve) metrics(client *http.Client) (*serverSnapshot, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap serverSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &snap, nil
}
