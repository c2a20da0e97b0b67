package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"ccolor/internal/engine"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
	"ccolor/internal/telemetry"
	"ccolor/internal/verify"
)

// solveWorkload is one warm in-process solve of a registry scenario.
type solveWorkload struct {
	scenario string
	model    engine.Model
	nodes    int
	// instances is how many instances a run builds and solves cold; their
	// median time is setup_s. The first is the reference instance, which is
	// also solved warm; the others are drawn from the run's seed.
	instances int
	// pin is the reference instance's exact Report.Rounds and
	// Report.WordsMoved at the default size.
	pin [2]int64
	// spansAreWords says the traced spans must sum to Report.Rounds and
	// Report.WordsMoved exactly. It does not hold on the sublinear-space
	// backend, whose spans also count the MIS pool traffic WordsMoved omits.
	spansAreWords bool
}

const (
	// referenceSeed is the seed of every solve workload's reference
	// instance, the one solved warm and counted. Instances of one family
	// differ a lot at 2^16: gnp takes 26 or 34 rounds, powerlaw moves about
	// 1.5M, 1.8M or 2.6M words, and its palette mass, memory and solve time
	// follow its maximum degree. A warm instance drawn from the seed would
	// turn that into run-to-run spread of every end-to-end metric, so the
	// instances drawn from the seed are built, solved cold and verified in
	// every run, and the timed warm solves use this one.
	referenceSeed = 11
	// minWarmSolves is the least number of warm solves a run makes, however
	// short -seconds is.
	minWarmSolves = 3
	// solveProcs is the worker count solves run at: the benchmark box has
	// two vCPUs.
	solveProcs = 2
)

func cliqueGNP(cfg config) (*run, error) {
	return solveRun(cfg, solveWorkload{
		scenario: "gnp", model: engine.ModelCClique, nodes: 1 << 16, instances: 5,
		pin: [2]int64{26, 8531483}, spansAreWords: true,
	})
}

func lowspacePowerlaw(cfg config) (*run, error) {
	return solveRun(cfg, solveWorkload{
		scenario: "powerlaw", model: engine.ModelLowSpace, nodes: 1 << 16, instances: 3,
		pin: [2]int64{38, 1503812},
	})
}

// instanceSeed is the seed of a run's i-th instance: the reference seed
// first, then seeds drawn from the run's seed.
func instanceSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return referenceSeed
	}
	return seed + uint64(i)*0x9e3779b97f4a7c15
}

// solveChecker verifies every report of one instance: a verified coloring
// whose rounds and words equal the instance's first (cold) solve, and on
// the reference instance the pinned counts.
type solveChecker struct {
	r    *run
	inst *graph.Instance
	ref  *engine.Report
	pin  *[2]int64
}

// check reports whether rep is correct; a failed or wrong solve counts as
// failed.
func (c *solveChecker) check(rep *engine.Report, err error) bool {
	c.r.attempted++
	if err != nil {
		c.r.failed++
		c.r.fail("solve: %v", err)
		return false
	}
	bad := ""
	if verr := verify.Full(c.inst, rep.Coloring); verr != nil {
		bad = fmt.Sprintf("verify: %v", verr)
	} else if c.pin != nil && (int64(rep.Rounds) != c.pin[0] || rep.WordsMoved != c.pin[1]) {
		bad = fmt.Sprintf("reference instance: rounds/words %d/%d, pinned %d/%d", rep.Rounds, rep.WordsMoved, c.pin[0], c.pin[1])
	} else if c.ref != nil && (rep.Rounds != c.ref.Rounds || rep.WordsMoved != c.ref.WordsMoved) {
		bad = fmt.Sprintf("rounds/words %d/%d, cold solve %d/%d", rep.Rounds, rep.WordsMoved, c.ref.Rounds, c.ref.WordsMoved)
	}
	if bad != "" {
		c.r.failed++
		c.r.fail("%s", bad)
		return false
	}
	if c.ref == nil {
		c.ref = rep
	}
	return true
}

// setupTimes collects the set-up split of a run's cold solves.
type setupTimes struct {
	total, build, palettes, cold, fingerprint []float64
}

// coldSolve builds the run's i-th instance and solves it cold on a fresh
// session, timing each step, and leaves chk checking that instance. It
// returns the session, or nil if the solve failed its check.
func coldSolve(cfg config, w solveWorkload, n, i int, chk *solveChecker, st *setupTimes) (*engine.Session, error) {
	spec, err := scenario.Lookup(w.scenario)
	if err != nil {
		return nil, err
	}
	// Return the previous instance's pages to the OS first, so no set-up
	// pays for the garbage of another.
	debug.FreeOSMemory()
	seed := instanceSeed(cfg.seed, i)
	t0 := time.Now()
	g, err := spec.Graph(n, seed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	inst, err := spec.InstanceFromGraph(g, n, seed)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	sess, err := engine.NewSession(w.model)
	if err != nil {
		return nil, err
	}
	rep, err := sess.Solve(inst, &engine.Options{Model: w.model})
	t3 := time.Now()
	*chk = solveChecker{r: chk.r, inst: inst}
	if i == 0 && n == w.nodes {
		chk.pin = &w.pin
	}
	ok := chk.check(rep, err)
	chk.pin = nil
	if !ok {
		sess.Release()
		return nil, nil
	}
	st.total = append(st.total, t3.Sub(t0).Seconds())
	st.build = append(st.build, t1.Sub(t0).Seconds())
	st.palettes = append(st.palettes, t2.Sub(t1).Seconds())
	st.cold = append(st.cold, t3.Sub(t2).Seconds())
	if cfg.trace {
		t := time.Now()
		verify.InstanceFingerprint(inst)
		st.fingerprint = append(st.fingerprint, time.Since(t).Seconds())
	}
	return sess, nil
}

func solveRun(cfg config, w solveWorkload) (*run, error) {
	runtime.GOMAXPROCS(solveProcs)
	n := w.nodes
	if cfg.nodes > 0 {
		n = cfg.nodes
	}
	r := newRun()
	chk := &solveChecker{r: r}
	opts := &engine.Options{Model: w.model}
	st := &setupTimes{}

	// The reference instance: set-up, then the warm solves on its session.
	sess, err := coldSolve(cfg, w, n, 0, chk, st)
	if err != nil || sess == nil {
		return r, err
	}
	r.set("model_rounds", float64(chk.ref.Rounds))
	r.set("model_words", float64(chk.ref.WordsMoved))
	setMemory(r, chk.ref)
	if cfg.trace {
		tracedSolves(cfg, r, chk, sess, opts, w)
	} else {
		warmSolves(cfg, r, chk, sess, opts)
	}
	sess.Release()

	// The instances drawn from the seed: set-up and a verified cold solve.
	for i := 1; i < w.instances; i++ {
		sess, err := coldSolve(cfg, w, n, i, chk, st)
		if err != nil || sess == nil {
			return r, err
		}
		sess.Release()
	}
	r.set("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted))
	r.set("setup_s", median(st.total))
	r.set("graph.build_s", median(st.build))
	r.set("graph.palettes_s", median(st.palettes))
	r.set("engine.cold_solve_s", median(st.cold))
	r.set("hashing.fingerprint_s", median(st.fingerprint))
	return r, nil
}

// warmSolves is the end-to-end measurement: warm solves on the reference
// instance's session, each verified before the next starts.
func warmSolves(cfg config, r *run, chk *solveChecker, sess *engine.Session, opts *engine.Options) {
	var solve, latency []float64
	ok := 0
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(solve) < minWarmSolves || time.Now().Before(deadline) {
		t0 := time.Now()
		rep, err := sess.Solve(chk.inst, opts)
		t1 := time.Now()
		good := chk.check(rep, err)
		t2 := time.Now()
		if err != nil {
			break // the session is not reusable after a failed solve
		}
		solve = append(solve, t1.Sub(t0).Seconds())
		latency = append(latency, t2.Sub(t0).Seconds()*1000)
		if len(solve) == minWarmSolves {
			// Read the peak RSS at a fixed point: each further warm solve
			// adds its garbage until the next collection, and how many fit
			// in -seconds depends on the machine's speed.
			rss, err := peakRSSMB("self")
			if err != nil {
				r.fail("read peak RSS: %v", err)
			}
			r.set("peak_rss_mb", rss)
		}
		if good {
			ok++
		}
	}
	wall := time.Since(start).Seconds()
	r.set("solve_s", median(solve))
	r.set("latency_p50_ms", median(latency))
	r.set("latency_p99_ms", tail(latency))
	r.set("throughput_rps", float64(ok)/wall)
}

// tracedSolves is the per-layer measurement: warm solves alternate between
// an untraced one (timed, with its heap allocation delta) and one with
// Options.Trace set, whose telemetry spans give the per-phase split.
func tracedSolves(cfg config, r *run, chk *solveChecker, sess *engine.Session, opts *engine.Options, w solveWorkload) {
	traced := *opts
	traced.Trace = true
	var plain, withTrace, allocs, bytes, check []float64
	phaseS := map[string][]float64{}
	var last *telemetry.Trace
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(plain) < minWarmSolves || time.Now().Before(deadline) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		rep, err := sess.Solve(chk.inst, opts)
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		if !chk.check(rep, err) {
			return
		}
		plain = append(plain, t1.Sub(t0).Seconds())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		t := time.Now()
		if err := verify.ListColoring(chk.inst, rep.Coloring); err != nil {
			r.fail("verify: %v", err)
		}
		check = append(check, time.Since(t).Seconds())

		t0 = time.Now()
		rep, err = sess.Solve(chk.inst, &traced)
		t1 = time.Now()
		if !chk.check(rep, err) {
			return
		}
		withTrace = append(withTrace, t1.Sub(t0).Seconds())
		if rep.Telemetry == nil {
			r.fail("traced solve returned no telemetry")
			return
		}
		last = rep.Telemetry
		for p, d := range phaseTotals(last) {
			phaseS[p] = append(phaseS[p], d)
		}
	}
	r.set("engine.allocs_per_solve", median(allocs))
	r.set("engine.bytes_per_solve", median(bytes))
	r.set("verify.check_s", median(check))
	r.set("trace.solve_s", median(withTrace))
	r.set("trace.overhead_s", median(withTrace)-median(plain))
	r.set("trace.samples", float64(len(withTrace)))
	for p, ds := range phaseS {
		r.set(phaseMetric(p, "s"), median(ds))
	}
	rounds, words := setSpanCounts(r, last)
	if w.spansAreWords && (rounds != int64(chk.ref.Rounds) || words != chk.ref.WordsMoved) {
		r.fail("trace spans sum to %d rounds / %d words, Report has %d / %d",
			rounds, words, chk.ref.Rounds, chk.ref.WordsMoved)
	}
}

// setMemory records the Report's load and memory-budget counters.
func setMemory(r *run, rep *engine.Report) {
	r.set("trace.model_rounds", float64(rep.Rounds))
	r.set("trace.model_words", float64(rep.WordsMoved))
	r.set("fabric.max_node_load", float64(rep.MaxNodeLoad))
	r.set("fabric.peak_round_words", float64(rep.Memory.PeakRoundWords))
	r.set("core.workspace_words", float64(rep.Memory.WorkspaceWords))
	r.set("lowspace.peak_machine_words", float64(rep.Memory.PeakMachineWords))
	r.set("lowspace.sublinear_bound", float64(rep.Memory.SublinearBound))
}

// phaseTotals sums one trace's span durations per phase label, in seconds.
func phaseTotals(tr *telemetry.Trace) map[string]float64 {
	out := map[string]float64{}
	for _, sp := range tr.Spans {
		out[sp.Phase] += sp.Duration.Seconds()
	}
	return out
}

// setSpanCounts records one trace's per-phase rounds and words and returns
// their sums over all spans. A phase outside the reported list is named on
// standard error, so a new label does not go unnoticed.
func setSpanCounts(r *run, tr *telemetry.Trace) (rounds, words int64) {
	known := map[string]bool{}
	for _, p := range phases {
		known[p] = true
	}
	for _, sp := range tr.Spans {
		rounds += int64(sp.Rounds)
		words += sp.Words
		if !known[sp.Phase] {
			fmt.Fprintf(os.Stderr, "perfbench: unreported phase %q (%d rounds, %d words)\n", sp.Phase, sp.Rounds, sp.Words)
			continue
		}
		r.values[phaseMetric(sp.Phase, "rounds")] += float64(sp.Rounds)
		r.values[phaseMetric(sp.Phase, "words")] += float64(sp.Words)
	}
	r.set("trace.span_rounds", float64(rounds))
	r.set("trace.span_words", float64(words))
	return rounds, words
}
