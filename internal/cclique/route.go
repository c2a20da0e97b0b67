package cclique

import (
	"fmt"
	"slices"

	"ccolor/internal/fabric"
)

// UnitMsg is one O(log 𝔫)-bit routing unit for RouteAll.
type UnitMsg struct {
	From, To int
	Word     uint64
}

// routePair is one (from, to) ordered pair's aggregate in a RouteAll call:
// how many units the pair carries and the contiguous rank block its units
// occupy at the target. Pairs replace the former map[key]int bookkeeping:
// they are derived by sorting unit indices (a counting sort over flat
// frames), so the whole schedule is computed with O(1) allocations.
type routePair struct {
	from, to int
	count    int
	offset   int // first rank of this pair's block at the target
}

// RouteAll implements Lenzen's routing guarantee [15]: any message set in
// which every node is the source of at most 𝔫 units and the target of at
// most 𝔫 units is delivered in O(1) rounds.
//
// The schedule is the rank-based two-phase relay: units destined to the
// same target are ranked (via a 2-round offset computation, the
// prefix-sums step of Lemma 2.1) and unit of per-target rank r relays
// through intermediate r mod 𝔫. Ranks within one target are contiguous, so
// each (intermediate, target) pair carries at most ⌈load(target)/𝔫⌉ ≤ 1
// unit, and a sender's units to one target spread across distinct
// intermediates; a sender's units to *different* targets may collide on an
// intermediate, so phase 1 is scheduled greedily into the minimum number of
// per-pair-respecting sub-rounds (≤ ⌈maxSourceLoad/𝔫⌉ + collision slack,
// a constant under the precondition).
//
// Returns the delivered units grouped per target, sorted by (From, Word).
func RouteAll(nw *Network, units []UnitMsg) ([][]UnitMsg, error) {
	n := nw.Workers()
	srcLoad := make([]int, n)
	dstLoad := make([]int, n)
	for _, u := range units {
		if u.From < 0 || u.From >= n || u.To < 0 || u.To >= n {
			return nil, fmt.Errorf("cclique: unit (%d→%d) out of range", u.From, u.To)
		}
		srcLoad[u.From]++
		dstLoad[u.To]++
	}
	for v := 0; v < n; v++ {
		if srcLoad[v] > n {
			return nil, fmt.Errorf("cclique: node %d sources %d > n units", v, srcLoad[v])
		}
		if dstLoad[v] > n {
			return nil, fmt.Errorf("cclique: node %d targets %d > n units", v, dstLoad[v])
		}
	}

	// Group units into (from, to) pairs and assign ranks: sort unit indices
	// by (to, from, index); each target's pairs take contiguous rank blocks
	// in sender-ID order, and units within a pair keep their input order.
	perm := make([]int32, len(units))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		ua, ub := units[a], units[b]
		if ua.To != ub.To {
			return ua.To - ub.To
		}
		if ua.From != ub.From {
			return ua.From - ub.From
		}
		return int(a - b)
	})
	ranked := make([]int, len(units))
	var pairs []routePair // in (to, from) order
	acc := 0
	for i := 0; i < len(perm); {
		u := units[perm[i]]
		if i > 0 && units[perm[i-1]].To != u.To {
			acc = 0 // ranks restart per target
		}
		j := i
		for j < len(perm) && units[perm[j]].To == u.To && units[perm[j]].From == u.From {
			ranked[perm[j]] = acc + (j - i)
			j++
		}
		pairs = append(pairs, routePair{from: u.From, to: u.To, count: j - i, offset: acc})
		acc += j - i
		i = j
	}

	// The rank computation costs 2 real rounds, one word per pair each way —
	// every sender tells each of its targets how many units it will send;
	// each target replies with the pair's block offset (computed above).
	// pairsByFrom groups the same pairs by sender for staging round 1.
	pairsByFrom := make([]int32, len(pairs))
	for i := range pairsByFrom {
		pairsByFrom[i] = int32(i)
	}
	slices.SortFunc(pairsByFrom, func(a, b int32) int {
		if pairs[a].from != pairs[b].from {
			return pairs[a].from - pairs[b].from
		}
		return pairs[a].to - pairs[b].to
	})
	fromStart := make([]int, n+1) // span of pairsByFrom per sender
	for _, pi := range pairsByFrom {
		fromStart[pairs[pi].from+1]++
	}
	for v := 0; v < n; v++ {
		fromStart[v+1] += fromStart[v]
	}
	toStart := make([]int, n+1) // span of pairs (already (to,from)-sorted) per target
	for _, p := range pairs {
		toStart[p.to+1]++
	}
	for v := 0; v < n; v++ {
		toStart[v+1] += toStart[v]
	}
	nw.Ledger().SetPhase("route:offsets")
	if _, err := nw.Round(func(w int, sb *fabric.SendBuf) {
		for _, pi := range pairsByFrom[fromStart[w]:fromStart[w+1]] {
			p := pairs[pi]
			if p.to != w {
				sb.Put(p.to, uint64(p.count))
			}
		}
	}); err != nil {
		return nil, err
	}
	if _, err := nw.Round(func(w int, sb *fabric.SendBuf) {
		// Each target w replies to its senders with their block offsets.
		for _, p := range pairs[toStart[w]:toStart[w+1]] {
			if p.from != w {
				sb.Put(p.from, uint64(p.offset))
			}
		}
	}); err != nil {
		return nil, err
	}

	// Phase 1: greedy sub-round schedule — a unit goes in the earliest
	// sub-round where its (sender → intermediate) slot is free. Slot use
	// only depends on the unit's own (sender, intermediate) history, so the
	// k-th unit of a (sender, intermediate) group (in input order) goes in
	// sub-round k: another counting sort instead of the former slot map.
	subOf := make([]int, len(units))
	slices.SortFunc(perm, func(a, b int32) int {
		ua, ub := units[a], units[b]
		if ua.From != ub.From {
			return ua.From - ub.From
		}
		ia, ib := ranked[a]%n, ranked[b]%n
		if ia != ib {
			return ia - ib
		}
		return int(a - b)
	})
	maxSub := 0
	for i := 0; i < len(perm); {
		u := units[perm[i]]
		inter := ranked[perm[i]] % n
		j := i
		for j < len(perm) && units[perm[j]].From == u.From && ranked[perm[j]]%n == inter {
			subOf[perm[j]] = j - i
			j++
		}
		if j-i-1 > maxSub {
			maxSub = j - i - 1
		}
		i = j
	}

	type rec struct {
		to   int
		rank int
		from int
		word uint64
	}
	held := make([][]rec, n)
	// Bucket units by (sub-round, sender) so each sub-round's staging
	// callback touches only its own worker's units: scanning the full unit
	// list from every worker was an O(workers·units) term per sub-round.
	slices.SortFunc(perm, func(a, b int32) int {
		if subOf[a] != subOf[b] {
			return subOf[a] - subOf[b]
		}
		ua, ub := units[a], units[b]
		if ua.From != ub.From {
			return ua.From - ub.From
		}
		return int(a - b) // keep staging order per (sub-round, sender) stable
	})
	subStart := make([]int32, maxSub+2)
	pos := 0
	for s := 0; s <= maxSub; s++ {
		for pos < len(perm) && subOf[perm[pos]] < s {
			pos++
		}
		subStart[s] = int32(pos)
	}
	subStart[maxSub+1] = int32(len(perm))
	nw.Ledger().SetPhase("route:spread")
	for s := 0; s <= maxSub; s++ {
		seg := perm[subStart[s]:subStart[s+1]]
		in, err := nw.Round(func(w int, sb *fabric.SendBuf) {
			lo, _ := slices.BinarySearchFunc(seg, int32(w), func(i int32, want int32) int {
				return units[i].From - int(want)
			})
			for _, i := range seg[lo:] {
				u := units[i]
				if u.From != w {
					break
				}
				inter := ranked[i] % n
				if inter == w {
					held[w] = append(held[w], rec{u.To, ranked[i], u.From, u.Word})
					continue
				}
				sb.Put(inter, uint64(u.To), uint64(ranked[i]), uint64(u.From), u.Word)
			}
		})
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			for _, m := range in[v] {
				held[v] = append(held[v], rec{int(m.Words[0]), int(m.Words[1]), int(m.Words[2]), m.Words[3]})
			}
		}
	}

	// Phase 2: delivery — each intermediate holds ≤ 1 unit per target per
	// residue layer; ship one unit per (intermediate, target) per round.
	for v := range held {
		slices.SortFunc(held[v], func(a, b rec) int {
			if a.to != b.to {
				return a.to - b.to
			}
			return a.rank - b.rank
		})
	}
	out := make([][]UnitMsg, n)
	nw.Ledger().SetPhase("route:deliver")
	for {
		any := false
		for v := range held {
			if len(held[v]) > 0 {
				any = true
				break
			}
		}
		if !any {
			break
		}
		in, err := nw.Round(func(w int, sb *fabric.SendBuf) {
			lastTo := -1
			for _, r := range held[w] {
				if r.to == lastTo {
					continue // one unit per (intermediate, target) per round
				}
				lastTo = r.to
				if r.to == w {
					continue // delivered locally below
				}
				sb.Put(r.to, uint64(r.from), r.word)
			}
		})
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			kept := held[v][:0]
			lastTo := -1
			for _, r := range held[v] {
				if r.to != lastTo {
					lastTo = r.to
					if r.to == v {
						out[v] = append(out[v], UnitMsg{From: r.from, To: v, Word: r.word})
					}
					continue
				}
				kept = append(kept, r)
			}
			held[v] = kept
		}
		for t := 0; t < n; t++ {
			for _, m := range in[t] {
				out[t] = append(out[t], UnitMsg{From: int(m.Words[0]), To: t, Word: m.Words[1]})
			}
		}
	}
	for v := range out {
		slices.SortFunc(out[v], func(a, b UnitMsg) int {
			if a.From != b.From {
				return a.From - b.From
			}
			if a.Word != b.Word {
				if a.Word < b.Word {
					return -1
				}
				return 1
			}
			return 0
		})
	}
	return out, nil
}
