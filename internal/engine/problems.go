package engine

import (
	"fmt"

	"ccolor/internal/graph"
	"ccolor/internal/mis"
	"ccolor/internal/problem"
	"ccolor/internal/verify"
)

// This file is the set-problem half of the session: the MIS and ruling-set
// runners. They arm the same backends as coloring (backend.go) with node
// weight deg(v)+2 — adjacency plus membership bookkeeping; palettes play no
// role in set problems.

// setWeight is a set problem's per-node resident words.
func setWeight(g *graph.Graph) func(v int) int64 {
	return func(v int) int64 { return int64(g.Degree(int32(v)) + 2) }
}

// misRunner solves the MIS problem on the session's backend.
type misRunner struct{ s *Session }

func (r *misRunner) Kind() problem.Kind { return problem.MIS }

func (r *misRunner) Solve(inst *graph.Instance, _ problem.Params) (*problem.Solution, error) {
	rep, err := r.run(inst, &Options{})
	if err != nil {
		return nil, err
	}
	return &problem.Solution{Set: rep.Set}, nil
}

func (r *misRunner) run(inst *graph.Instance, o *Options) (*Report, error) {
	s := r.s
	mp := mis.DefaultParams()
	if o.MIS != nil {
		mp = *o.MIS
	}
	bk, err := s.arm(inst.G, setWeight(inst.G), o)
	if err != nil {
		return nil, err
	}
	defer bk.release() // return round arenas to the shared pool
	set, _, err := mis.SolveDetSubset(bk.f, bk.pairWords, inst.G, nil, mp, &s.misWS)
	if err != nil {
		return nil, err
	}
	if err := verify.MIS(inst.G, set); err != nil {
		return nil, fmt.Errorf("ccolor: internal verification failed: %w", err)
	}
	return s.report(outcome{kind: problem.MIS, inst: inst, set: set, bk: bk}), nil
}

// rulingRunner solves the (2,β)-ruling set problem on the session's
// backend.
type rulingRunner struct{ s *Session }

func (r *rulingRunner) Kind() problem.Kind { return problem.RulingSet }

func (r *rulingRunner) Solve(inst *graph.Instance, p problem.Params) (*problem.Solution, error) {
	rep, err := r.run(inst, &Options{Beta: p.Beta})
	if err != nil {
		return nil, err
	}
	return &problem.Solution{Set: rep.Set, Beta: rep.Beta}, nil
}

func (r *rulingRunner) run(inst *graph.Instance, o *Options) (*Report, error) {
	s := r.s
	rp := mis.DefaultRulingParams()
	if o.Beta > 0 {
		rp.Beta = o.Beta
	}
	if o.MIS != nil {
		rp.MIS = *o.MIS
	}
	bk, err := s.arm(inst.G, setWeight(inst.G), o)
	if err != nil {
		return nil, err
	}
	defer bk.release() // return round arenas to the shared pool
	set, _, err := mis.SolveRuling(bk.f, bk.pairWords, inst.G, rp, &s.rsWS)
	if err != nil {
		return nil, err
	}
	if err := verify.RulingSet(inst.G, set, rp.Beta); err != nil {
		return nil, fmt.Errorf("ccolor: internal verification failed: %w", err)
	}
	return s.report(outcome{kind: problem.RulingSet, inst: inst, set: set, beta: rp.Beta, bk: bk}), nil
}
