package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refDeliver is the delivery contract written out naively, as the oracle
// Deliver is diffed against. It walks the staged frames in staging order
// (senders ascending, each arena front to back) and returns the first
// out-of-range or over-pair-budget frame as a RouteError. Otherwise each
// frame lands in its destination's inbox, every inbox is ordered with
// SortInbox, and loads are summed per group: per worker when ungrouped,
// per GroupOf entry when grouped, where intra-group traffic is free.
func refDeliver(rb *RoundBuffer, opts DeliverOpts) ([][]Msg, RoundStats, error) {
	n := rb.n
	groups, group := n, func(w int) int { return w }
	if opts.GroupOf != nil {
		groups, group = opts.Groups, func(w int) int { return opts.GroupOf[w] }
	}
	in := make([][]Msg, n)
	st := RoundStats{SendLoad: make([]int64, groups), RecvLoad: make([]int64, groups)}
	hit := make([]bool, groups)
	for w := 0; w < n; w++ {
		pair := make(map[int]int)
		for _, m := range stagedFrames(rb.Sender(w)) {
			if m.To < 0 || m.To >= n {
				return nil, RoundStats{}, &RouteError{OutOfRange: true, From: w, To: m.To}
			}
			pair[m.To] += len(m.Words)
			if opts.PairWords > 0 && pair[m.To] > opts.PairWords {
				return nil, RoundStats{}, &RouteError{From: w, To: m.To, Words: pair[m.To], Budget: opts.PairWords}
			}
			in[m.To] = append(in[m.To], m)
			if gw, gt := group(w), group(m.To); opts.GroupOf == nil || gw != gt {
				words := int64(len(m.Words))
				st.SendLoad[gw] += words
				st.RecvLoad[gt] += words
				st.TotalWords += words
				hit[gw], hit[gt] = true, true
			}
		}
	}
	for d := range in {
		SortInbox(in[d])
	}
	for g := 0; g < groups; g++ {
		if hit[g] {
			st.Groups = append(st.Groups, int32(g))
			st.MaxSendLoad = max(st.MaxSendLoad, st.SendLoad[g])
			st.MaxRecvLoad = max(st.MaxRecvLoad, st.RecvLoad[g])
		}
	}
	return in, st, nil
}

// stageRandomRound stages random traffic into rb: per sender a handful of
// frames with short payloads drawn from a tiny alphabet, half of them
// aimed at four hot destinations, so equal-sender equal-destination runs
// with duplicate and out-of-order payloads (the tie-break sort's hard
// case) occur in every round. violate injects, at random staging
// positions, out-of-range destinations (bit 0) and frames that push one
// ordered pair past pairWords (bit 1).
func stageRandomRound(rng *rand.Rand, rb *RoundBuffer, violate, pairWords int) {
	n := rb.n
	for w := 0; w < n; w++ {
		rb.send[w].reset(w)
	}
	bad := [2]int{-1, -1} // staging sender of each injected violation
	for k := range bad {
		if violate&(1<<k) != 0 {
			bad[k] = rng.Intn(n)
		}
	}
	for w := 0; w < n; w++ {
		frames := rng.Intn(8)
		for f := 0; f < frames; f++ {
			if w == bad[0] && f == frames/2 {
				rb.Sender(w).Put([]int{-1 - rng.Intn(3), n + rng.Intn(3)}[rng.Intn(2)], 1)
			}
			if w == bad[1] && f == frames/2 {
				to := rng.Intn(n)
				rb.Sender(w).Put(to, make([]uint64, pairWords)...)
				rb.Sender(w).Put(to, 1)
			}
			to := rng.Intn(n)
			if rng.Intn(2) == 0 {
				to = rng.Intn(4)
			}
			words := make([]uint64, rng.Intn(4))
			for i := range words {
				words[i] = uint64(rng.Intn(3))
			}
			rb.Sender(w).Put(to, words...)
		}
	}
}

func compareDeliveries(t *testing.T, label string,
	win, gin [][]Msg, wst, gst RoundStats, werr, gerr error) {
	t.Helper()
	if !reflect.DeepEqual(werr, gerr) {
		t.Fatalf("%s: err %v, want %v", label, gerr, werr)
	}
	if werr != nil {
		return
	}
	if wst.TotalWords != gst.TotalWords || wst.MaxSendLoad != gst.MaxSendLoad || wst.MaxRecvLoad != gst.MaxRecvLoad {
		t.Fatalf("%s: stats %+v, want %+v", label, gst, wst)
	}
	if !slices.Equal(wst.Groups, gst.Groups) {
		t.Fatalf("%s: groups %v, want %v", label, gst.Groups, wst.Groups)
	}
	for _, g := range wst.Groups {
		if wst.SendLoad[g] != gst.SendLoad[g] || wst.RecvLoad[g] != gst.RecvLoad[g] {
			t.Fatalf("%s group %d: loads (%d,%d), want (%d,%d)",
				label, g, gst.SendLoad[g], gst.RecvLoad[g], wst.SendLoad[g], wst.RecvLoad[g])
		}
	}
	if len(win) != len(gin) {
		t.Fatalf("%s: %d inboxes, want %d", label, len(gin), len(win))
	}
	for d := range win {
		if len(win[d]) != len(gin[d]) {
			t.Fatalf("%s inbox %d: %d msgs, want %d", label, d, len(gin[d]), len(win[d]))
		}
		for i := range win[d] {
			wm, gm := win[d][i], gin[d][i]
			if wm.To != gm.To || wm.From != gm.From || !slices.Equal(wm.Words, gm.Words) {
				t.Fatalf("%s inbox %d msg %d: %+v, want %+v", label, d, i, gm, wm)
			}
		}
	}
}

// deliverRangeCounts are the range counts Deliver is diffed at: the
// one-range (serial) case, an even and an odd split, and more ranges than
// most runners have cores.
var deliverRangeCounts = []int{1, 2, 3, 8}

// diffRandomRounds stages random rounds, with and without injected
// violations, and requires Deliver at every range count to match
// refDeliver: inboxes, stats and errors.
func diffRandomRounds(t *testing.T, seed int64) {
	oldCut := DeliverParallelMinWords
	DeliverParallelMinWords = 1
	defer func() { DeliverParallelMinWords = oldCut }()

	const n, pairWords = 97, 8
	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = i % 7
	}
	modes := []struct {
		name string
		opts DeliverOpts
	}{
		{"ungrouped", DeliverOpts{}},
		{"pair-budget", DeliverOpts{PairWords: pairWords}},
		{"grouped", DeliverOpts{GroupOf: groupOf, Groups: 7}},
	}
	for _, nr := range deliverRangeCounts {
		pool := NewWorkPool(nr)
		for _, mode := range modes {
			rng := rand.New(rand.NewSource(seed + int64(nr)))
			rb := AcquireRoundBuffer(n)
			for round := 0; round < 16; round++ {
				stageRandomRound(rng, rb, round%4, pairWords)
				win, wst, werr := refDeliver(rb, mode.opts)
				opts := mode.opts
				opts.Pool = pool
				gin, gst, gerr := rb.Deliver(opts)
				compareDeliveries(t, fmt.Sprintf("%s ranges=%d round %d", mode.name, nr, round),
					win, gin, wst, gst, werr, gerr)
			}
			ReleaseRoundBuffer(rb)
		}
		pool.Stop()
	}
}

// TestDeliverRangesMatchReference diffs Deliver against the naive
// reference on random rounds at every range count and accounting mode —
// the contract that keeps the solve goldens byte-stable regardless of
// GOMAXPROCS or pool width.
func TestDeliverRangesMatchReference(t *testing.T) {
	diffRandomRounds(t, 1009)
}

// TestDeliverRangesWideLocatorsMatchReference repeats the diff with the
// packed locator boundary lowered, so every range's scatter takes the wide
// (offset + sender slab) encoding.
func TestDeliverRangesWideLocatorsMatchReference(t *testing.T) {
	old := locOffsetLimit
	locOffsetLimit = 8
	defer func() { locOffsetLimit = old }()
	diffRandomRounds(t, 7)
}

// TestDeliverRangesErrorsMatchReference pins the staging-order error
// contract on hand-placed violations: the reported RouteError (kind, pair,
// running word count) is the reference's at every range count, even when
// violations in different ranges race.
func TestDeliverRangesErrorsMatchReference(t *testing.T) {
	oldCut := DeliverParallelMinWords
	DeliverParallelMinWords = 1
	defer func() { DeliverParallelMinWords = oldCut }()
	const n = 64

	stage := func(rb *RoundBuffer, oor bool) {
		for w := 0; w < n; w++ {
			rb.send[w].reset(w)
		}
		// Sender 3 overruns the pair budget on destination 40; sender 5
		// sends out of range. With a budget the (3, …) violation is first
		// in staging order; without one only the out-of-range frame errs.
		rb.Sender(3).Put(40, 1, 2, 3)
		rb.Sender(3).Put(40, 4, 5)
		if oor {
			rb.Sender(5).Put(n+7, 9)
		}
		rb.Sender(7).Put(1, 8)
	}
	for _, nr := range deliverRangeCounts {
		pool := NewWorkPool(nr)
		for _, tc := range []struct {
			name string
			opts DeliverOpts
			oor  bool
		}{
			{"pair-violation", DeliverOpts{PairWords: 4}, false},
			{"out-of-range", DeliverOpts{}, true},
			{"pair-before-oor", DeliverOpts{PairWords: 4}, true},
		} {
			rb := AcquireRoundBuffer(n)
			stage(rb, tc.oor)
			_, _, want := refDeliver(rb, tc.opts)
			opts := tc.opts
			opts.Pool = pool
			_, _, got := rb.Deliver(opts)
			if want == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s ranges=%d: err %v, want %v", tc.name, nr, got, want)
			}
			ReleaseRoundBuffer(rb)
		}
		pool.Stop()
	}
}
