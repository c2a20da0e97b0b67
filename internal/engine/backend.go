package engine

import (
	"fmt"
	"math"

	"ccolor/internal/cclique"
	"ccolor/internal/core"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/lowspace"
	"ccolor/internal/mpc"
	"ccolor/internal/problem"
	"ccolor/internal/telemetry"
)

// This file is the one path every solve takes through the session: arm
// dimensions the model's backend for the instance, and report assembles
// the Report from the solution and the solve's cost record. All three
// models present the same one-worker-per-node fabric — the clique network
// directly, the linear-space cluster via NewLinear, and the sublinear-space
// model (for set problems; its coloring solver keeps its own session) via
// the same ≤2τ-word chunk placement the low-space coloring solver uses for
// its node data.

// backend is an armed fabric plus the MPC-family telemetry the report
// carries.
type backend struct {
	f         fabric.Fabric
	pairWords int
	machines  int
	space     int64
	sublinear int64 // ModelLowSpace's per-machine contract; zero elsewhere
	peak      func() int64
	release   func()
	rec       *telemetry.Recorder // nil unless Options.Trace
}

// arm arms the session's backend for a solve over g, re-dimensioning
// retained simulators in place (warm ≡ cold). weight(v) is node v's
// resident words on the MPC-family models: adjacency plus palette for
// coloring, adjacency plus membership bookkeeping (deg(v)+2) for set
// problems. With o.Trace set, a fresh recorder is attached to the ledger,
// which was just reset, so the next solve's reset drops it again.
func (s *Session) arm(g *graph.Graph, weight func(v int) int64, o *Options) (*backend, error) {
	n := g.N()
	var bk *backend
	switch s.model {
	case ModelCClique:
		if s.nw == nil {
			s.nw = cclique.New(n)
		} else {
			s.nw.Reset(n)
		}
		bk = &backend{f: s.nw, pairWords: s.nw.MsgWords(), release: s.nw.Release}

	case ModelMPC:
		factor := o.MPCSpaceFactor
		if factor <= 0 {
			factor = 64
		}
		if s.cl == nil {
			cl, err := mpc.NewLinear(n, weight, factor)
			if err != nil {
				return nil, err
			}
			s.cl = cl
		} else if err := s.cl.ResetLinear(n, weight, factor); err != nil {
			return nil, err
		}
		bk = &backend{
			f: s.cl, pairWords: 8, machines: s.cl.Machines(), space: s.cl.Space(),
			peak: s.cl.PeakMachineSpace, release: s.cl.Release,
		}

	case ModelLowSpace:
		// Sublinear space: 𝔰 = max(√𝔫, 4τ+64) words per machine with
		// τ = 𝔫^0.49, node data split into ≤2τ-word chunks packed
		// first-fit; a node's home machine is where its first chunk lands
		// (the lowspace coloring placement, minus palettes).
		tau := int(math.Ceil(math.Pow(float64(n), 0.49)))
		if tau < 2 {
			tau = 2
		}
		space := int64(math.Ceil(math.Sqrt(float64(n))))
		if floor := int64(4*tau + 64); space < floor {
			space = floor
		}
		assign := s.setAssign[:0]
		perMachine := append(s.setMachine[:0], 0)
		m := 0
		for v := 0; v < n; v++ {
			first := true
			for rem := weight(v); rem > 0; {
				chunk := min(int64(2*tau), rem)
				if perMachine[m]+chunk > space {
					m++
					perMachine = append(perMachine, 0)
				}
				if first {
					assign = append(assign, m)
					first = false
				}
				perMachine[m] += chunk
				rem -= chunk
			}
		}
		s.setAssign, s.setMachine = assign, perMachine
		machines := m + 1
		if s.cl == nil {
			cl, err := mpc.New(assign, machines, space)
			if err != nil {
				return nil, err
			}
			s.cl = cl
		} else if err := s.cl.Reset(assign, machines, space); err != nil {
			return nil, err
		}
		for mm := 0; mm < machines; mm++ {
			if err := s.cl.AdjustResidentMachine(mm, perMachine[mm]); err != nil {
				return nil, err
			}
		}
		bk = &backend{
			f: s.cl, pairWords: 8, machines: machines, space: space, sublinear: space,
			peak: s.cl.PeakMachineSpace, release: s.cl.Release,
		}

	default:
		return nil, fmt.Errorf("ccolor: unknown model %q", s.model)
	}
	if o.Trace {
		bk.rec = telemetry.NewRecorder()
		bk.f.Ledger().SetRecorder(bk.rec)
	}
	return bk, nil
}

// outcome is one verified solve awaiting report assembly.
type outcome struct {
	kind problem.Kind
	inst *graph.Instance
	col  graph.Coloring // the coloring problem's solution
	set  []bool         // set problems' solution, in session workspace
	beta int
	tr   *core.Trace
	// The cost record: the armed backend's ledger, or the trace of the
	// sublinear-space coloring solver, whose clusters live inside its own
	// session, with that solve's recorder.
	bk  *backend
	lt  *lowspace.Trace
	rec *telemetry.Recorder
}

// report assembles every Report. The set is copied out of session
// workspace so the report outlives the session, and the ledger is read
// before the backend is released. Set problems ignore palettes, so their
// memory budget charges only the graph's encoded words.
func (s *Session) report(x outcome) *Report {
	rep := &Report{Model: s.model, Problem: x.kind, Beta: x.beta, Trace: x.tr, LowTrace: x.lt}
	mem := &rep.Memory
	if x.kind == problem.Coloring {
		rep.Coloring, rep.ColorsUsed = x.col, s.countColors(x.col)
		mem.InstanceWords = graph.InstanceWordCount(x.inst)
	} else {
		rep.Set = make([]bool, len(x.set))
		for v, in := range x.set {
			if in {
				rep.Set[v] = true
				rep.SetSize++
			}
		}
		mem.InstanceWords = graph.GraphWordCount(x.inst.G)
	}
	rec := x.rec
	if lt := x.lt; lt != nil {
		rep.Rounds, rep.WordsMoved, rep.MaxNodeLoad = lt.CriticalRounds, lt.WordsMoved, lt.PeakMachineWords
		rep.PhaseProfile, rep.Machines = lt.Phases, lt.Machines
		mem.PeakRoundWords = lt.PeakRoundWords
		mem.MachineSpace, mem.PeakMachineWords, mem.SublinearBound = lt.SpaceWords, lt.PeakMachineWords, lt.SpaceWords
	} else {
		bk, led := x.bk, x.bk.f.Ledger()
		rep.Rounds, rep.WordsMoved, rep.MaxNodeLoad = led.Rounds(), led.WordsMoved(), max(led.MaxSendLoad(), led.MaxRecvLoad())
		rep.PhaseProfile, rep.Machines = led.PhaseProfile(), bk.machines
		mem.PeakRoundWords, mem.MachineSpace, mem.SublinearBound = led.PeakRoundWords(), bk.space, bk.sublinear
		if bk.peak != nil {
			mem.PeakMachineWords = bk.peak()
		}
		if x.kind == problem.Coloring {
			mem.WorkspaceWords = s.cw.MemoryWords()
		}
		rec = bk.rec
	}
	rep.Telemetry = rec.Finish(string(s.model))
	return rep
}
