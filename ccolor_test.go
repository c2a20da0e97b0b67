package ccolor_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ccolor"
	"ccolor/internal/graph"
)

func TestFacadeDeltaPlus1(t *testing.T) {
	g, err := ccolor.GNP(300, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ccolor.Solve(ccolor.DeltaPlus1Instance(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < 1 || !rep.Coloring.Complete() {
		t.Fatalf("bad result: rounds=%d", rep.Rounds)
	}
	if rep.MaxNodeLoad <= 0 {
		t.Fatal("no load recorded")
	}
	if rep.Trace.MaxRecursionDepth() > 9 {
		t.Fatalf("depth %d exceeds 9", rep.Trace.MaxRecursionDepth())
	}
}

func TestFacadeListColoring(t *testing.T) {
	g, err := ccolor.RandomRegular(200, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ccolor.ListInstance(g, 1<<20, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := ccolor.DefaultParams()
	rep, err := ccolor.Solve(inst, &ccolor.Options{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if err := ccolor.VerifyListColoring(inst, rep.Coloring); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMPC(t *testing.T) {
	g, err := ccolor.GNP(250, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := ccolor.DeltaPlus1Instance(g)
	rep, err := ccolor.Solve(inst, &ccolor.Options{Model: ccolor.ModelMPC})
	if err != nil {
		t.Fatal(err)
	}
	if mem := rep.Memory; mem.PeakMachineWords > mem.MachineSpace {
		t.Fatalf("peak %d exceeds machine space %d", mem.PeakMachineWords, mem.MachineSpace)
	}
	if rep.Machines < 1 {
		t.Fatal("no machines")
	}
}

func TestFacadeCompactMPC(t *testing.T) {
	g, err := ccolor.GNP(150, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := ccolor.DefaultParams()
	p.CompactPalettes = true
	rep, err := ccolor.Solve(ccolor.DeltaPlus1Instance(g), &ccolor.Options{Model: ccolor.ModelMPC, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Coloring.Complete() {
		t.Fatal("incomplete coloring")
	}
}

func TestFacadeLowSpace(t *testing.T) {
	g, err := ccolor.PowerLaw(300, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ccolor.DegPlus1Instance(g, 1<<16, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ccolor.Solve(inst, &ccolor.Options{Model: ccolor.ModelLowSpace})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Coloring.Complete() {
		t.Fatal("incomplete coloring")
	}
	if tr := rep.LowTrace; tr.PeakMachineWords > tr.SpaceWords {
		t.Fatalf("peak %d exceeds 𝔰=%d", tr.PeakMachineWords, tr.SpaceWords)
	}
}

// TestSolveRejectsNegativeColors hands Solve an instance built without the
// validating constructors: a negative color must come back as an error on
// every model, never as a panic in a backend's color-domain indexing.
func TestSolveRejectsNegativeColors(t *testing.T) {
	g, err := ccolor.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []ccolor.Color{ccolor.NoColor, -5} {
		inst := &ccolor.Instance{G: g, Palettes: []ccolor.Palette{{c, 7, 8}, {c, 7, 9}, {c, 9, 10}}}
		for _, model := range []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace} {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				_, err = ccolor.Solve(inst, &ccolor.Options{Model: model})
				return err
			}()
			if !errors.Is(err, graph.ErrNegativeColor) {
				t.Errorf("%s, color %d: err %v, want ErrNegativeColor", model, c, err)
			}
		}
	}
}

// TestSolvePoolDoesNotLeakGoroutines drops the pooled facade's sessions to
// the GC after every solve. A session that kept a worker pool running past
// its solve would strand that pool's parked goroutines, so the count must
// return to its baseline. Four procs make each pool spawn helpers.
func TestSolvePoolDoesNotLeakGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, err := ccolor.GNP(2000, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := ccolor.DeltaPlus1Instance(g)
	settle := func() {
		runtime.GC()
		runtime.GC() // the second cycle empties sync.Pool's victim cache
	}
	settle()
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		for _, model := range []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC} {
			if _, err := ccolor.Solve(inst, &ccolor.Options{Model: model}); err != nil {
				t.Fatal(err)
			}
			settle()
		}
	}
	// Stopped pools' goroutines exit asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines grew from %d to %d over 20 pooled solves", base, got)
	}
}
