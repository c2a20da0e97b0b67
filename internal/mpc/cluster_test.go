package mpc

import (
	"errors"
	"testing"

	"ccolor/internal/fabric"
)

// stageMsgs adapts a per-worker []Msg producer to a Fabric.Round staging
// callback, so tests can spell out a round's traffic as message literals.
func stageMsgs(produce func(w int) []fabric.Msg) func(w int, sb *fabric.SendBuf) {
	return func(w int, sb *fabric.SendBuf) {
		for _, m := range produce(w) {
			sb.Put(m.To, m.Words...)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{0, 3}, 2, 100); err == nil {
		t.Fatal("invalid machine assignment accepted")
	}
	c, err := New([]int{0, 0, 1, 1}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 4 || c.Machines() != 2 || c.Space() != 100 {
		t.Fatal("basic accessors wrong")
	}
	if c.MachineOf(2) != 1 || c.GroupOf(3) != 1 {
		t.Fatal("machine mapping wrong")
	}
}

func TestIntraMachineTrafficFree(t *testing.T) {
	c, err := New([]int{0, 0, 1}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Workers 0→1 are co-hosted: a huge message is free.
	if _, err := c.Round(stageMsgs(func(w int) []fabric.Msg {
		if w != 0 {
			return nil
		}
		return []fabric.Msg{{To: 1, Words: make([]uint64, 1000)}}
	})); err != nil {
		t.Fatal(err)
	}
	if c.Ledger().WordsMoved() != 0 {
		t.Fatal("intra-machine traffic charged")
	}
}

func TestSendSpaceEnforced(t *testing.T) {
	c, err := New([]int{0, 1}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Round(stageMsgs(func(w int) []fabric.Msg {
		if w != 0 {
			return nil
		}
		return []fabric.Msg{{To: 1, Words: make([]uint64, 10)}}
	}))
	var se *SpaceError
	if !errors.As(err, &se) || se.Kind != "send" {
		t.Fatalf("expected send SpaceError, got %v", err)
	}
}

func TestRecvSpaceEnforced(t *testing.T) {
	c, err := New([]int{0, 1, 2, 3}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Round(stageMsgs(func(w int) []fabric.Msg {
		if w == 0 {
			return nil
		}
		return []fabric.Msg{{To: 0, Words: []uint64{1, 2}}} // 3 senders × 2 words = 6 > 3
	}))
	var se *SpaceError
	if !errors.As(err, &se) || se.Kind != "recv" {
		t.Fatalf("expected recv SpaceError, got %v", err)
	}
}

func TestResidentEnforced(t *testing.T) {
	c, err := New([]int{0}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AdjustResident(0, 8); err != nil {
		t.Fatal(err)
	}
	err = c.AdjustResident(0, 8)
	var se *SpaceError
	if !errors.As(err, &se) || se.Kind != "resident" {
		t.Fatalf("expected resident SpaceError, got %v", err)
	}
	if err := c.AdjustResidentMachine(0, -20); err == nil {
		t.Fatal("negative resident accepted")
	}
}

func TestTotalBudgetEnforced(t *testing.T) {
	c, err := New([]int{0, 1}, 2, 100, WithTotalSpaceBudget(5))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Round(stageMsgs(func(w int) []fabric.Msg {
		return []fabric.Msg{{To: 1 - w, Words: []uint64{1, 2, 3}}}
	}))
	var se *SpaceError
	if !errors.As(err, &se) || se.Kind != "total" {
		t.Fatalf("expected total SpaceError, got %v", err)
	}
}

func TestNewLinearPacking(t *testing.T) {
	c, err := NewLinear(10, func(v int) int64 { return 30 }, 10)
	if err != nil {
		t.Fatal(err)
	}
	// space = 100 words, each node 30 → 3 nodes/machine → 4 machines.
	if c.Machines() != 4 {
		t.Fatalf("machines = %d, want 4", c.Machines())
	}
	if c.TotalResident() != 300 {
		t.Fatalf("resident = %d, want 300", c.TotalResident())
	}
	if _, err := NewLinear(4, func(v int) int64 { return 100 }, 1); err == nil {
		t.Fatal("node heavier than machine accepted")
	}
}

func TestResetRecyclesCluster(t *testing.T) {
	c, err := New([]int{0, 1}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AdjustResident(0, 17); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Round(stageMsgs(func(w int) []fabric.Msg {
		if w != 0 {
			return nil
		}
		return []fabric.Msg{{To: 1, Words: make([]uint64, 30)}}
	})); err != nil {
		t.Fatal(err)
	}
	if c.Ledger().Rounds() != 1 || c.Ledger().WordsMoved() != 30 {
		t.Fatalf("pre-reset ledger: rounds=%d words=%d", c.Ledger().Rounds(), c.Ledger().WordsMoved())
	}
	if c.PeakMachineSpace() != 30 {
		t.Fatalf("pre-reset peak = %d, want 30", c.PeakMachineSpace())
	}

	// Reset into a different shape: ledger, peak, and resident must read as
	// a fresh cluster's, and the old telemetry must not bleed through.
	if err := c.Reset([]int{0, 0, 1, 2}, 3, 50); err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 4 || c.Machines() != 3 || c.Space() != 50 {
		t.Fatalf("post-reset shape: workers=%d machines=%d space=%d", c.Workers(), c.Machines(), c.Space())
	}
	if c.Ledger().Rounds() != 0 || c.Ledger().WordsMoved() != 0 {
		t.Fatalf("ledger not reset: rounds=%d words=%d", c.Ledger().Rounds(), c.Ledger().WordsMoved())
	}
	if len(c.Ledger().ByPhase()) != 0 {
		t.Fatal("phase attribution not reset")
	}
	if c.PeakMachineSpace() != 0 {
		t.Fatalf("peak not reset: %d", c.PeakMachineSpace())
	}
	if c.TotalResident() != 0 {
		t.Fatalf("resident not reset: %d", c.TotalResident())
	}
	if c.MachineOf(1) != 0 || c.MachineOf(3) != 2 {
		t.Fatal("post-reset assignment wrong")
	}

	// The recycled cluster must charge rounds from zero.
	if _, err := c.Round(stageMsgs(func(w int) []fabric.Msg {
		if w != 3 {
			return nil
		}
		return []fabric.Msg{{To: 0, Words: []uint64{1, 2}}}
	})); err != nil {
		t.Fatal(err)
	}
	if c.Ledger().Rounds() != 1 || c.Ledger().WordsMoved() != 2 {
		t.Fatalf("post-reset round: rounds=%d words=%d", c.Ledger().Rounds(), c.Ledger().WordsMoved())
	}
	if c.PeakMachineSpace() != 2 {
		t.Fatalf("post-reset peak = %d, want 2", c.PeakMachineSpace())
	}

	// Invalid assignments are rejected exactly as New rejects them.
	if err := c.Reset([]int{0, 5}, 2, 10); err == nil {
		t.Fatal("invalid machine assignment accepted by Reset")
	}
}

func TestPeakTracksTraffic(t *testing.T) {
	c, err := New([]int{0, 1}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Round(stageMsgs(func(w int) []fabric.Msg {
		if w != 0 {
			return nil
		}
		return []fabric.Msg{{To: 1, Words: make([]uint64, 42)}}
	})); err != nil {
		t.Fatal(err)
	}
	if c.PeakMachineSpace() != 42 {
		t.Fatalf("peak = %d, want 42", c.PeakMachineSpace())
	}
}

// TestResetLinearMatchesNewLinear: the warm-path layout must be
// indistinguishable from a fresh NewLinear — same machine count, space,
// worker placement, resident totals, and peak watermark — across differing
// instance shapes on one recycled cluster, including shrinking ones.
func TestResetLinearMatchesNewLinear(t *testing.T) {
	weights := func(seed int) func(int) int64 {
		return func(v int) int64 { return int64((v*7+seed)%13 + 1) }
	}
	recycled, err := NewLinear(10, weights(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, shape := range []struct {
		n      int
		seed   int
		factor int
	}{{24, 3, 2}, {6, 5, 4}, {24, 3, 2}} {
		if err := recycled.ResetLinear(shape.n, weights(shape.seed), shape.factor); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		fresh, err := NewLinear(shape.n, weights(shape.seed), shape.factor)
		if err != nil {
			t.Fatal(err)
		}
		if recycled.Machines() != fresh.Machines() || recycled.Space() != fresh.Space() {
			t.Fatalf("shape %d: machines/space (%d, %d) != fresh (%d, %d)",
				i, recycled.Machines(), recycled.Space(), fresh.Machines(), fresh.Space())
		}
		for w := 0; w < shape.n; w++ {
			if recycled.MachineOf(w) != fresh.MachineOf(w) {
				t.Fatalf("shape %d: worker %d on machine %d, fresh says %d",
					i, w, recycled.MachineOf(w), fresh.MachineOf(w))
			}
		}
		if recycled.TotalResident() != fresh.TotalResident() {
			t.Fatalf("shape %d: resident %d != fresh %d",
				i, recycled.TotalResident(), fresh.TotalResident())
		}
		if recycled.PeakMachineSpace() != fresh.PeakMachineSpace() {
			t.Fatalf("shape %d: peak %d != fresh %d",
				i, recycled.PeakMachineSpace(), fresh.PeakMachineSpace())
		}
		if recycled.Ledger().Rounds() != 0 {
			t.Fatalf("shape %d: ledger not cleared", i)
		}
		// One round on each must charge identically.
		for _, c := range []*Cluster{recycled, fresh} {
			if _, err := c.Round(stageMsgs(func(w int) []fabric.Msg {
				if w == 0 && shape.n > 1 {
					return []fabric.Msg{{To: shape.n - 1, Words: []uint64{7}}}
				}
				return nil
			})); err != nil {
				t.Fatal(err)
			}
		}
		if recycled.Ledger().WordsMoved() != fresh.Ledger().WordsMoved() {
			t.Fatalf("shape %d: round charges diverge", i)
		}
		fresh.Release()
	}
	recycled.Release()
}

// TestResetLinearRejectsBadInput mirrors NewLinear's validation.
func TestResetLinearRejectsBadInput(t *testing.T) {
	c, err := NewLinear(4, func(int) int64 { return 1 }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ResetLinear(4, func(int) int64 { return 1 }, 0); err == nil {
		t.Fatal("space factor 0 accepted")
	}
	if err := c.ResetLinear(4, func(int) int64 { return 1 << 40 }, 1); err == nil {
		t.Fatal("oversized node weight accepted")
	}
}
