package cclique

import (
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

// refRound is the pre-flat-buffer delivery semantics, kept as a reference
// oracle for the differential test below.
func refRound(n, msgWords int, produce func(w int) []fabric.Msg) ([][]fabric.Msg, int64, error) {
	out := make([][]fabric.Msg, n)
	for v := 0; v < n; v++ {
		out[v] = produce(v)
	}
	inboxes := make([][]fabric.Msg, n)
	var totalWords int64
	for from, msgs := range out {
		pair := make(map[int]int)
		for _, m := range msgs {
			pair[m.To] += len(m.Words)
			if pair[m.To] > msgWords {
				return nil, 0, &BandwidthError{From: from, To: m.To}
			}
			m.From = from
			inboxes[m.To] = append(inboxes[m.To], m)
			totalWords += int64(len(m.Words))
		}
	}
	for v := range inboxes {
		fabric.SortInbox(inboxes[v])
	}
	return inboxes, totalWords, nil
}

func TestRoundMatchesReference(t *testing.T) {
	const n = 32
	rng := uint64(12345)
	next := func(m uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % m
	}
	for trial := 0; trial < 200; trial++ {
		// Random message pattern: each worker sends 0..4 messages of 1..3
		// words to random targets (respecting the 4-word pair budget via
		// small payloads and distinct targets not enforced — collisions are
		// part of the test; skip patterns that exceed the budget).
		plan := make([][]fabric.Msg, n)
		for w := 0; w < n; w++ {
			k := int(next(5))
			for j := 0; j < k; j++ {
				words := make([]uint64, 1+next(2))
				for i := range words {
					words[i] = next(1 << 16)
				}
				plan[w] = append(plan[w], fabric.Msg{To: int(next(n)), Words: words})
			}
		}
		produce := func(w int) []fabric.Msg { return plan[w] }
		want, wantWords, refErr := refRound(n, DefaultMsgWords, produce)

		nw := New(n, WithParallelism(1))
		got, err := nw.Round(stageMsgs(produce))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("trial %d: err=%v refErr=%v", trial, err, refErr)
		}
		if err != nil {
			continue
		}
		if nw.Ledger().WordsMoved() != wantWords {
			t.Fatalf("trial %d: words %d want %d", trial, nw.Ledger().WordsMoved(), wantWords)
		}
		for v := 0; v < n; v++ {
			if len(got[v]) != len(want[v]) {
				t.Fatalf("trial %d node %d: %d msgs want %d", trial, v, len(got[v]), len(want[v]))
			}
			for i := range got[v] {
				a, b := got[v][i], want[v][i]
				if a.From != b.From || len(a.Words) != len(b.Words) {
					t.Fatalf("trial %d node %d msg %d: got %+v want %+v", trial, v, i, a, b)
				}
				for j := range a.Words {
					if a.Words[j] != b.Words[j] {
						t.Fatalf("trial %d node %d msg %d word %d: got %d want %d",
							trial, v, i, j, a.Words[j], b.Words[j])
					}
				}
			}
		}
	}
}
