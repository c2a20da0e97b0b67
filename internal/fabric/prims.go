package fabric

import (
	"fmt"
	"slices"
)

// Communication primitives (paper §2.1). Each is implemented with real
// message traffic over the Fabric and charges exactly the rounds it uses.
// They assume the congested-clique reading of bandwidth: at most pairWords
// words between any ordered worker pair per round. MPC fabrics enforce
// their own (space) limits on top.
//
// All primitives stage their traffic as flat frames through Fabric.Round,
// which runs without per-message allocation.
//
// The multi-target gather below is the restricted routing pattern the
// coloring algorithm needs (per-sender blocks of ≤ O(𝔫) words, per-target
// totals of O(𝔫) words). It is the special case of Lenzen's constant-round
// routing [15] for which a simple rank-based two-phase schedule is exact:
// word of global per-target rank r relays through intermediate r mod 𝔫, so
// every (sender, intermediate) and (intermediate, target, sub-round) pair
// carries at most one record.

// Grouped is an optional Fabric extension: workers sharing a group (an MPC
// machine) exchange data for free, so collective primitives combine
// group-locally before crossing machine boundaries — exactly how MapReduce
// primitives (Lemma 2.1) respect the space bound.
type Grouped interface {
	GroupOf(w int) int
}

// Capacitated is an optional Fabric extension reporting the per-entity
// space budget in words (MPC's 𝔰); collective primitives on grouped
// fabrics shape their reduction trees to it, mirroring Lemma 2.1's
// O(1)-round tree of fan-in 𝔰^Θ(1).
type Capacitated interface {
	CapacityWords() int64
}

// groupReps returns, per worker, whether it is its group's representative
// (lowest-indexed member), and the list of representatives. For ungrouped
// fabrics every worker is its own representative.
func groupReps(f Fabric) (isRep []bool, reps []int) {
	n := f.Workers()
	isRep = make([]bool, n)
	g, ok := f.(Grouped)
	if !ok {
		reps = make([]int, n)
		for w := 0; w < n; w++ {
			isRep[w] = true
			reps[w] = w
		}
		return isRep, reps
	}
	seen := make([]bool, maxGroupID(f.Workers(), g)+1)
	for w := 0; w < n; w++ {
		if !seen[g.GroupOf(w)] {
			seen[g.GroupOf(w)] = true
			isRep[w] = true
			reps = append(reps, w)
		}
	}
	return isRep, reps
}

// maxGroupID scans the group ids so flat tables can replace maps (group ids
// are machine indices on every in-tree fabric, so the scan is cheap and the
// tables stay O(workers)).
func maxGroupID(n int, g Grouped) int {
	maxG := 0
	for w := 0; w < n; w++ {
		if id := g.GroupOf(w); id > maxG {
			maxG = id
		}
	}
	return maxG
}

// Broadcast sends words from worker src to all workers. For payloads of at
// most pairWords words it takes 1 round; for payloads up to 𝔫·pairWords it
// takes 2 (distribute chunks, then all-to-all chunk exchange). On grouped
// fabrics only group representatives are addressed; members share locally.
func Broadcast(f Fabric, pairWords int, src int, words []uint64) error {
	n := f.Workers()
	if _, grouped := f.(Grouped); grouped {
		return broadcastTree(f, src, words)
	}
	if len(words) <= pairWords {
		_, reps := groupReps(f)
		_, err := f.Round(func(w int, sb *SendBuf) {
			if w != src {
				return
			}
			for _, t := range reps {
				if t == src {
					continue
				}
				sb.Put(t, words...)
			}
		})
		return err
	}
	if len(words) > n*pairWords {
		return fmt.Errorf("fabric: broadcast payload %d exceeds %d*%d", len(words), n, pairWords)
	}
	// Round 1: distribute chunk j to worker j.
	chunks := make([][]uint64, n)
	for i := 0; i < len(words); i += pairWords {
		end := i + pairWords
		if end > len(words) {
			end = len(words)
		}
		chunks[i/pairWords] = words[i:end]
	}
	if _, err := f.Round(func(w int, sb *SendBuf) {
		if w != src {
			return
		}
		for t, ch := range chunks {
			if len(ch) == 0 || t == src {
				continue
			}
			sb.Put(t, ch...)
		}
	}); err != nil {
		return err
	}
	// Round 2: every chunk holder sends its chunk to everyone.
	_, err := f.Round(func(w int, sb *SendBuf) {
		ch := chunks[w]
		if len(ch) == 0 {
			return
		}
		sb.Reserve(n-1, (n-1)*len(ch))
		for t := 0; t < n; t++ {
			if t == w {
				continue
			}
			sb.Put(t, ch...)
		}
	})
	return err
}

// VecScratch holds the flat worker/group tables, accumulator slab, and
// reduction-tree state behind AggregateVec. The zero value is ready for
// use; solver sessions retain one across solves (via derand.Workspace /
// the core and lowspace workspaces) so the grouped aggregation path runs
// without per-call map or accumulator allocation in steady state. The
// returned totals are freshly allocated on every call either way, so the
// caller-visible contract is unchanged.
type VecScratch struct {
	reps    []int   // group representatives, ascending worker order
	slot    []int32 // worker -> dense group slot (valid for representatives)
	gdense  []int32 // group id -> dense slot + 1 (0 = unseen)
	moff    []int32 // CSR offsets into members, per slot (len slots+1)
	mcur    []int32 // CSR fill cursors
	members []int32 // group members, slot-major, ascending worker order
	acc     []int64 // slots×vlen accumulator slab
	have    []bool  // worker -> holds the result (tree distribution)
	levels  []int   // flattened reduction-tree levels (level 0 = reps)
	loff    []int32 // per-level offsets into levels
	sendTo  []int32 // worker -> this level's block leader + 1 (0 = not a member)
	blockAt []int32 // worker -> this level's block start in cur + 1 (0 = not a leader)
}

// AggregateVec computes the element-wise sum over all workers of the
// length-vlen int64 vector local(w), and makes the result known to all
// workers, in 2 rounds. Element j is owned by the j mod R-th group
// representative (R = number of groups; every worker on an ungrouped
// fabric); representatives combine their group's contributions locally
// before sending — the machine-local combining step that keeps MPC traffic
// within 𝔰 — then owners sum and broadcast their elements back to the
// representatives. On ungrouped fabrics this requires
// vlen ≤ workers·pairWords.
//
// On grouped fabrics local is invoked serially (callers may share scratch
// across invocations); on ungrouped fabrics it runs inside the round's
// parallel staging and must be safe for concurrent calls with distinct w.
func AggregateVec(f Fabric, pairWords int, vlen int, local func(w int) []int64) ([]int64, error) {
	var ws VecScratch
	return ws.AggregateVec(f, pairWords, vlen, local)
}

// AggregateVec is the scratch-reusing form: identical rounds, message
// content, and result as the package-level function, with the internal
// tables drawn from (and retained in) ws.
func (ws *VecScratch) AggregateVec(f Fabric, pairWords int, vlen int, local func(w int) []int64) ([]int64, error) {
	n := f.Workers()
	if g, ok := f.(Grouped); ok {
		// Space-bounded path: machine-local combine, then a fan-in-bounded
		// reduction tree over representatives (Lemma 2.1 style).
		ws.groupTables(n, g)
		return ws.aggregateTree(f, vlen, func(slot int, combined []int64) {
			for _, member := range ws.members[ws.moff[slot]:ws.moff[slot+1]] {
				vals := local(int(member))
				if len(vals) != vlen {
					panic(fmt.Sprintf("fabric: local vector length %d != %d", len(vals), vlen))
				}
				for j, x := range vals {
					combined[j] += x
				}
			}
		})
	}

	// Ungrouped path: every worker is a representative (r = n); element j is
	// owned by worker j mod n, so owner o holds slots(o) elements.
	r := n
	perOwner := (vlen + r - 1) / r
	if perOwner > pairWords {
		return nil, fmt.Errorf("fabric: aggregate vector length %d exceeds %d*%d", vlen, n, pairWords)
	}
	slots := func(o int) int {
		if o >= vlen {
			return 0
		}
		return (vlen-o-1)/r + 1
	}

	// Round 1: every worker ships, per owner, its contribution to that
	// owner's elements; its own elements are summed in place. res is indexed
	// like the result (element j at res[j]); owner o's slot s is j = o+s·r.
	res := make([]int64, vlen)
	owners := r
	if owners > vlen {
		owners = vlen
	}
	in, err := f.Round(func(w int, sb *SendBuf) {
		vals := local(w)
		if len(vals) != vlen {
			panic(fmt.Sprintf("fabric: local vector length %d != %d", len(vals), vlen))
		}
		sb.Reserve(owners, vlen)
		for o := 0; o < r; o++ {
			k := slots(o)
			if k == 0 {
				break // owners past vlen hold nothing
			}
			if o == w {
				// Own elements: no self-message, accumulated directly. Only
				// worker o touches res[o+s·r], so this is race-free under
				// parallel staging.
				for s := 0; s < k; s++ {
					res[o+s*r] += vals[o+s*r]
				}
				continue
			}
			payload := sb.Begin(o, k)
			for s := 0; s < k; s++ {
				payload[s] = uint64(vals[o+s*r])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for o := 0; o < r && o < vlen; o++ {
		for _, m := range in[o] {
			for s, x := range m.Words {
				res[o+s*r] += int64(x)
			}
		}
	}
	// Round 2: each owner broadcasts its summed elements to all workers.
	if _, err := f.Round(func(w int, sb *SendBuf) {
		k := slots(w)
		if w >= r || k == 0 {
			return
		}
		sb.Reserve(n-1, (n-1)*k)
		for t := 0; t < n; t++ {
			if t == w {
				continue
			}
			payload := sb.Begin(t, k)
			for s := 0; s < k; s++ {
				payload[s] = uint64(res[w+s*r])
			}
		}
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// broadcastTree delivers words from src to every group representative via
// a fan-out-bounded tree (members of each group then share locally, for
// free). O(1) rounds for constant tree depth.
func broadcastTree(f Fabric, src int, words []uint64) error {
	_, reps := groupReps(f)
	branch := branchFactor(f, len(words))
	// Round 0: src hands the payload to the representative tree root
	// (skipped when src is the root).
	root := reps[0]
	if src != root {
		if _, err := f.Round(func(w int, sb *SendBuf) {
			if w != src {
				return
			}
			sb.Put(root, words...)
		}); err != nil {
			return err
		}
	}
	// Down-tree over representatives in index order: level k holds reps
	// with index < branch^k.
	have := map[int]bool{root: true}
	for reach := 1; reach < len(reps); reach *= branch {
		if _, err := f.Round(func(w int, sb *SendBuf) {
			if !have[w] {
				return
			}
			for i, t := range reps {
				if i < reach || have[t] {
					continue
				}
				// rep i is served by rep i/branch at this level.
				if i/branch < reach && reps[i/branch] == w && i < reach*branch {
					sb.Put(t, words...)
				}
			}
		}); err != nil {
			return err
		}
		for i, t := range reps {
			if i < reach*branch {
				have[t] = true
			}
		}
	}
	return nil
}

// branchFactor picks the reduction-tree fan-in for a grouped fabric so one
// level's inbound traffic (fan-in · vlen words) stays within half the
// capacity.
func branchFactor(f Fabric, vlen int) int {
	b := 8
	if c, ok := f.(Capacitated); ok {
		b = int(c.CapacityWords() / int64(2*vlen))
	}
	if b < 2 {
		b = 2
	}
	return b
}

// groupTables (re)builds the flat representative/member tables for a
// grouped fabric: reps in ascending worker order, each group's dense slot
// in first-appearance (= rep) order, and the member list as a CSR keyed by
// slot, members ascending within each group — the exact iteration order the
// old map-based path produced.
func (ws *VecScratch) groupTables(n int, g Grouped) {
	ws.gdense = grow(ws.gdense, maxGroupID(n, g)+1)
	clear(ws.gdense)
	ws.slot = grow(ws.slot, n)
	reps := ws.reps[:0]
	for w := 0; w < n; w++ {
		if ws.gdense[g.GroupOf(w)] == 0 {
			ws.gdense[g.GroupOf(w)] = int32(len(reps)) + 1
			ws.slot[w] = int32(len(reps))
			reps = append(reps, w)
		}
	}
	ws.reps = reps
	r := len(reps)
	ws.moff = grow(ws.moff, r+1)
	clear(ws.moff)
	for w := 0; w < n; w++ {
		ws.moff[ws.gdense[g.GroupOf(w)]]++ // slot+1: counts land past the offset
	}
	for s := 0; s < r; s++ {
		ws.moff[s+1] += ws.moff[s]
	}
	ws.mcur = grow(ws.mcur, r)
	copy(ws.mcur, ws.moff[:r])
	ws.members = grow(ws.members, n)
	for w := 0; w < n; w++ {
		s := ws.gdense[g.GroupOf(w)] - 1
		ws.members[ws.mcur[s]] = int32(w)
		ws.mcur[s]++
	}
}

// aggregateTree sums length-vlen vectors across group representatives via a
// fan-in-bounded reduction tree, then redistributes the result down the
// same tree — Lemma 2.1's constant-round, space-respecting pattern.
// combineInto fills slot's machine-locally combined vector into a zeroed
// slab window.
func (ws *VecScratch) aggregateTree(f Fabric, vlen int, combineInto func(slot int, combined []int64)) ([]int64, error) {
	reps := ws.reps
	r := len(reps)
	branch := branchFactor(f, vlen)
	ws.acc = grow(ws.acc, r*vlen)
	for s := 0; s < r; s++ {
		dst := ws.acc[s*vlen : (s+1)*vlen]
		clear(dst)
		combineInto(s, dst)
	}
	accOf := func(w int) []int64 {
		s := ws.slot[w]
		return ws.acc[int(s)*vlen : (int(s)+1)*vlen]
	}
	// Reduce up: levels of blocks of `branch` representatives, flattened
	// into one levels buffer with per-level offsets. Per-level block
	// membership is precomputed into worker-indexed tables so each staging
	// callback is O(1) per worker — scanning cur from every worker made the
	// reduction O(workers·reps) per level, a dominant term at large n.
	ws.levels = append(ws.levels[:0], reps...)
	ws.loff = append(ws.loff[:0], 0, int32(len(ws.levels)))
	ws.sendTo = grow(ws.sendTo, f.Workers())
	ws.blockAt = grow(ws.blockAt, f.Workers())
	for {
		lv := len(ws.loff) - 2
		cur := ws.levels[ws.loff[lv]:ws.loff[lv+1]]
		if len(cur) <= 1 {
			break
		}
		for i := 0; i < len(cur); i += branch {
			end := i + branch
			if end > len(cur) {
				end = len(cur)
			}
			for j := i + 1; j < end; j++ {
				ws.sendTo[cur[j]] = int32(cur[i]) + 1
			}
		}
		in, err := f.Round(func(w int, sb *SendBuf) {
			// Block members (non-leaders) send their accumulator to the
			// block leader.
			if t := ws.sendTo[w]; t != 0 {
				payload := sb.Begin(int(t-1), vlen)
				for k, x := range accOf(w) {
					payload[k] = uint64(x)
				}
			}
		})
		for i := 0; i < len(cur); i += branch {
			end := i + branch
			if end > len(cur) {
				end = len(cur)
			}
			for j := i + 1; j < end; j++ {
				ws.sendTo[cur[j]] = 0
			}
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(cur); i += branch {
			leader := cur[i]
			for _, m := range in[leader] {
				dst := accOf(leader)
				for k, x := range m.Words {
					dst[k] += int64(x)
				}
			}
			ws.levels = append(ws.levels, leader)
		}
		ws.loff = append(ws.loff, int32(len(ws.levels)))
	}
	// Distribute down: leaders push the final vector to their blocks.
	root := ws.levels[len(ws.levels)-1]
	result := append([]int64(nil), accOf(root)...)
	ws.have = grow(ws.have, f.Workers())
	clear(ws.have)
	ws.have[root] = true
	for li := len(ws.loff) - 3; li >= 0; li-- {
		cur := ws.levels[ws.loff[li]:ws.loff[li+1]]
		for i := 0; i < len(cur); i += branch {
			ws.blockAt[cur[i]] = int32(i) + 1
		}
		_, err := f.Round(func(w int, sb *SendBuf) {
			if !ws.have[w] {
				return
			}
			bi := ws.blockAt[w]
			if bi == 0 {
				return
			}
			i := int(bi - 1)
			end := i + branch
			if end > len(cur) {
				end = len(cur)
			}
			for j := i + 1; j < end; j++ {
				payload := sb.Begin(cur[j], vlen)
				for k, x := range result {
					payload[k] = uint64(x)
				}
			}
		})
		for i := 0; i < len(cur); i += branch {
			ws.blockAt[cur[i]] = 0
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(cur); i += branch {
			if ws.have[cur[i]] {
				end := i + branch
				if end > len(cur) {
					end = len(cur)
				}
				for j := i + 1; j < end; j++ {
					ws.have[cur[j]] = true
				}
			}
		}
	}
	return result, nil
}

// SenderBlock is one sender's contribution to a gather target, delivered in
// the sender's original word order.
type SenderBlock struct {
	From  int
	Words []uint64
}

// GatherMany routes each worker's payload block to its designated target
// worker. payload(w) returns (target, words); a negative target means
// worker w contributes nothing. Multiple targets may be gathered to
// concurrently. The result maps target → blocks sorted by sender.
//
// payload is invoked serially, in ascending worker order — callers may
// share scratch buffers across invocations (the returned words, however,
// are retained until the gather completes and must be per-worker).
//
// Round cost: 2 (offset computation via worker 0) + ⌈maxBlock/𝔫⌉ (spread) +
// phase-2 delivery rounds, which is O(1) whenever every block is O(𝔫) words
// and every target receives O(𝔫) words — the regime Corollary 3.10 and
// Lemma 3.14 guarantee for the coloring algorithm.
func GatherMany(f Fabric, pairWords int, payload func(w int) (int, []uint64)) (map[int][]SenderBlock, error) {
	n := f.Workers()
	targets := make([]int, n)
	blocks := make([][]uint64, n)
	for w := 0; w < n; w++ {
		targets[w], blocks[w] = payload(w)
		if targets[w] >= n {
			return nil, fmt.Errorf("fabric: gather target %d out of range", targets[w])
		}
	}

	// Rounds 1-2: worker 0 assigns each sender a rank offset within its
	// target's gather space. Each sender reports (target, count) — 2 words;
	// worker 0 replies with the offset — 1 word.
	if _, err := f.Round(func(w int, sb *SendBuf) {
		if targets[w] < 0 || len(blocks[w]) == 0 || w == 0 {
			return
		}
		sb.Put(0, uint64(targets[w]), uint64(len(blocks[w])))
	}); err != nil {
		return nil, err
	}
	offsets := make([]int, n)
	totals := make([]int, n) // per target: gathered word count
	for w := 0; w < n; w++ { // worker 0's local computation over reported counts
		if targets[w] < 0 || len(blocks[w]) == 0 {
			continue
		}
		offsets[w] = totals[targets[w]]
		totals[targets[w]] += len(blocks[w])
	}
	if _, err := f.Round(func(w int, sb *SendBuf) {
		if w != 0 {
			return
		}
		for t := 1; t < n; t++ {
			if targets[t] < 0 || len(blocks[t]) == 0 {
				continue
			}
			sb.Put(t, uint64(offsets[t]))
		}
	}); err != nil {
		return nil, err
	}

	// Phase 1: spread. Word k of sender w has per-target rank
	// r = offsets[w]+k and relays through intermediate r mod n. Within one
	// sub-round a sender touches each intermediate at most once (records of
	// one sub-round have distinct ranks mod n).
	type rec struct {
		target int
		rank   int
		word   uint64
	}
	maxBlock := 0
	for w := 0; w < n; w++ {
		if targets[w] >= 0 && len(blocks[w]) > maxBlock {
			maxBlock = len(blocks[w])
		}
	}
	// Every record relays through rank % n, so each intermediate's queue
	// size is known up front: carve the per-intermediate queues out of one
	// slab instead of growing n slices.
	heldCnt := make([]int, n+1)
	baseSum := 0 // full cycles land on every intermediate equally
	for w := 0; w < n; w++ {
		if targets[w] < 0 {
			continue
		}
		l := len(blocks[w])
		baseSum += l / n
		rem, start := l%n, offsets[w]%n
		for k := 0; k < rem; k++ {
			heldCnt[(start+k)%n+1]++
		}
	}
	for i := 0; i < n; i++ {
		heldCnt[i+1] += heldCnt[i] + baseSum
	}
	slab := make([]rec, heldCnt[n])
	held := make([][]rec, n) // per intermediate
	for i := 0; i < n; i++ {
		held[i] = slab[heldCnt[i]:heldCnt[i]:heldCnt[i+1]]
	}
	subRounds := (maxBlock + n - 1) / n
	for s := 0; s < subRounds; s++ {
		in, err := f.Round(func(w int, sb *SendBuf) {
			if targets[w] < 0 {
				return
			}
			lo, hi := s*n, (s+1)*n
			if hi > len(blocks[w]) {
				hi = len(blocks[w])
			}
			if hi > lo {
				sb.Reserve(hi-lo, 3*(hi-lo))
			}
			for k := lo; k < hi; k++ {
				r := offsets[w] + k
				inter := r % n
				if inter == w {
					held[w] = append(held[w], rec{targets[w], r, blocks[w][k]})
					continue
				}
				sb.Put(inter, uint64(targets[w]), uint64(r), blocks[w][k])
			}
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			for _, m := range in[i] {
				held[i] = append(held[i], rec{int(m.Words[0]), int(m.Words[1]), m.Words[2]})
			}
		}
	}

	// Phase 2: delivery. Each intermediate holds ≤ ⌈W_target/n⌉ records per
	// target; it ships per-target chunks of ⌊pairWords/2⌋ (rank, word) pairs
	// per round until drained. gathered words live in one flat slab indexed
	// by per-target offsets.
	for i := range held {
		slices.SortFunc(held[i], func(a, b rec) int {
			if a.target != b.target {
				return a.target - b.target
			}
			return a.rank - b.rank
		})
	}
	goff := make([]int, n+1) // slab offset per target
	for t := 0; t < n; t++ {
		goff[t+1] = goff[t] + totals[t]
	}
	gath := make([]uint64, goff[n])
	perRound := pairWords / 2
	if perRound < 1 {
		return nil, fmt.Errorf("fabric: pairWords %d too small for gather delivery", pairWords)
	}
	cursor := make([]int, n)
	for {
		anyLeft := false
		for i := range held {
			if cursor[i] < len(held[i]) {
				anyLeft = true
				break
			}
		}
		if !anyLeft {
			break
		}
		in, err := f.Round(func(w int, sb *SendBuf) {
			i := cursor[w]
			for i < len(held[w]) {
				t := held[w][i].target
				j := i
				for j < len(held[w]) && held[w][j].target == t && j-i < perRound {
					j++
				}
				if t == w {
					for k := i; k < j; k++ {
						gath[goff[t]+held[w][k].rank] = held[w][k].word
					}
				} else {
					payload := sb.Begin(t, 2*(j-i))
					for k := i; k < j; k++ {
						payload[2*(k-i)] = uint64(held[w][k].rank)
						payload[2*(k-i)+1] = held[w][k].word
					}
				}
				// Stop at the per-target chunk for this round; move to the
				// next target's queue segment.
				i = j
				if j < len(held[w]) && held[w][j].target == t {
					// Remaining records for t wait for the next round; skip
					// past them when scanning for other targets this round.
					for j < len(held[w]) && held[w][j].target == t {
						j++
					}
					i = j
				}
			}
		})
		if err != nil {
			return nil, err
		}
		// Advance cursors: each queue consumed ≤ perRound records per target.
		for w := 0; w < n; w++ {
			i := cursor[w]
			for i < len(held[w]) {
				t := held[w][i].target
				cnt := 0
				j := i
				for j < len(held[w]) && held[w][j].target == t {
					j++
					cnt++
				}
				consumed := cnt
				if consumed > perRound {
					consumed = perRound
				}
				// Compact: remove the consumed prefix of this target's queue.
				copy(held[w][i:], held[w][i+consumed:])
				held[w] = held[w][:len(held[w])-consumed]
				i += cnt - consumed
			}
			cursor[w] = 0
		}
		for t := 0; t < n; t++ {
			for _, m := range in[t] {
				for k := 0; k+1 < len(m.Words); k += 2 {
					gath[goff[t]+int(m.Words[k])] = m.Words[k+1]
				}
			}
		}
	}

	// Reassemble per-sender blocks at each target. Senders are visited in
	// ascending order, so each target's blocks arrive From-sorted.
	out := make(map[int][]SenderBlock)
	for w := 0; w < n; w++ {
		if targets[w] < 0 || len(blocks[w]) == 0 {
			continue
		}
		t := targets[w]
		lo := goff[t] + offsets[w]
		out[t] = append(out[t], SenderBlock{
			From:  w,
			Words: gath[lo : lo+len(blocks[w])],
		})
	}
	return out, nil
}
