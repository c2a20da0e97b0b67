// cctrace runs one instance through the solver with telemetry tracing on and
// prints the per-phase span profile — wall-clock, rounds, words, peak loads,
// recursion depth — for any of the three execution models (or all of them
// side by side). For the recursive models it also prints the recursion
// anatomy, derandomization cost, and invariant audit: a teaching view of
// Algorithm 1's execution with the paper's cost model attached.
//
// Usage:
//
//	cctrace -model all -n 400 -d 40
//	cctrace -model lowspace -n 1024 -d 32
//	cctrace -problem rulingset -beta 3 -model all
package main

import (
	"flag"
	"fmt"
	"os"

	"ccolor"
	"ccolor/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cctrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		model    = flag.String("model", "cclique", "execution model: cclique, mpc, lowspace, or all")
		probName = flag.String("problem", "", "registry problem: coloring|mis|rulingset (default coloring)")
		beta     = flag.Int("beta", 0, "ruling-set domination radius (0 = registry default 2; rulingset only)")
		n        = flag.Int("n", 400, "nodes")
		d        = flag.Int("d", 40, "regular degree")
		seed     = flag.Uint64("seed", 1, "workload seed")
		mpcSpace = flag.Int("mpc-space", 0, "mpc per-machine space factor (0 = default)")
	)
	flag.Parse()
	if (*n**d)%2 != 0 {
		*d++
	}
	prob, err := ccolor.ParseProblem(*probName)
	if err != nil {
		return err
	}
	if *beta != 0 && prob != ccolor.ProblemRulingSet {
		return fmt.Errorf("-beta applies only to -problem rulingset")
	}

	var models []ccolor.Model
	if *model == "all" {
		models = []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace}
	} else {
		m, err := ccolor.ParseModel(*model)
		if err != nil {
			return err
		}
		models = []ccolor.Model{m}
	}

	g, err := ccolor.RandomRegular(*n, *d, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("cctrace: %d-regular graph, n=%d (Δ+1 = %d colors)\n", *d, *n, g.MaxDegree()+1)

	for _, m := range models {
		// Each model gets its native palette discipline, mirroring the
		// serving-layer default: Δ+1 for the clique-simulation models,
		// deg+1 lists for Theorem 1.4.
		inst := ccolor.DeltaPlus1Instance(g)
		if m == ccolor.ModelLowSpace {
			inst, err = ccolor.DegPlus1Instance(g, int64(4*g.N()), *seed)
			if err != nil {
				return err
			}
		}
		rep, err := ccolor.Solve(inst, &ccolor.Options{
			Model: m, Problem: prob, Beta: *beta, Trace: true, MPCSpaceFactor: *mpcSpace,
		})
		if err != nil {
			return err
		}
		printReport(m, rep)
	}
	return nil
}

func printReport(m ccolor.Model, rep *ccolor.Report) {
	fmt.Printf("\n══ %s ══\n\n", m)

	if tel := rep.Telemetry; tel != nil {
		fmt.Println("— phase profile —")
		fmt.Print(telemetry.FormatTable(tel.ByPhase(), tel.Total))
		fmt.Printf("total: rounds=%d words=%d wall=%v\n\n", tel.Rounds, tel.Words, tel.Total)
	}

	if rep.Set != nil {
		fmt.Printf("— cost ledger (%s) —\nrounds=%d wordsMoved=%d maxNodeLoad=%d setSize=%d",
			rep.Problem, rep.Rounds, rep.WordsMoved, rep.MaxNodeLoad, rep.SetSize)
		if rep.Beta > 0 {
			fmt.Printf(" beta=%d", rep.Beta)
		}
		fmt.Println()
	} else {
		fmt.Printf("— cost ledger —\nrounds=%d wordsMoved=%d maxNodeLoad=%d colorsUsed=%d\n",
			rep.Rounds, rep.WordsMoved, rep.MaxNodeLoad, rep.ColorsUsed)
	}
	if rep.Machines > 0 {
		fmt.Printf("machines=%d space=%d peakSpace=%d\n", rep.Machines, rep.Memory.MachineSpace, rep.Memory.PeakMachineWords)
	}

	if tr := rep.Trace; tr != nil {
		fmt.Println("\n— recursion anatomy —")
		fmt.Println(tr)
		fmt.Println("— derandomization —")
		for _, ds := range tr.PerDepth {
			if ds.Partitions == 0 {
				continue
			}
			fmt.Printf("depth %d: %d partitions, %d seed batches, %d candidates, bad=%d (budget %d)\n",
				ds.Depth, ds.Partitions, ds.SeedBatches, ds.SeedCandidates, ds.BadNodes, ds.BadBound)
		}
		a := tr.Audit
		fmt.Printf("\n— invariant audit (Cor. 3.3) —\nchecks=%d  (i) ℓ<p misses=%d  (ii) d≤ℓ+ℓ^0.7 misses=%d  (iii) d<p misses=%d\n",
			a.Checked, a.EllBelowPalette, a.DegreeAboveEll, a.PaletteNotAboveDeg)
	}

	if lt := rep.LowTrace; lt != nil {
		fmt.Println("\n— low-space anatomy (Thm 1.4) —")
		fmt.Printf("machines=%d spaceWords=%d tau=%d bins=%d levels=%d\n",
			lt.Machines, lt.SpaceWords, lt.Tau, lt.Bins, lt.Levels)
		fmt.Printf("criticalRounds=%d executedRounds=%d misRounds=%d (phases=%d)\n",
			lt.CriticalRounds, lt.ExecutedRounds, lt.MISRounds, lt.MISPhases)
		fmt.Printf("wordsMoved=%d misWords=%d poolNodes=%d badNodes=%d peakMachineWords=%d\n",
			lt.WordsMoved, lt.MISWords, lt.PoolNodes, lt.BadNodes, lt.PeakMachineWords)
	}
}
