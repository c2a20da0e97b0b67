package core

import (
	"fmt"
	"math"

	"ccolor/internal/derand"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// partition implements Algorithm 2 (Partition) plus the derandomized hash
// selection of §3.3 for one call X:
//
//  1. Deterministically select (h₁, h₂) with cost 𝔮 ≤ ⌊𝔫/ℓ²⌋ (Lemma 3.9)
//     via the batched conditional-expectations engine.
//  2. Classify nodes good/bad (Definition 3.1) and announce badness to
//     in-call neighbors (one round).
//  3. Build the B−1 parallel color-bin children (palettes restricted by
//     h₂), the gated bin-B child, and the bad-node graph G0.
//
// The hash evaluations behind the classification are shared, not repeated:
// for each candidate pair the derand Prepare hook tabulates h₁ over the
// call's live nodes and h₂ over the union of their palettes (as packed
// color-bin masks over the dense domain), so evaluating Definition 3.1 for
// one node costs table lookups and one popcount-AND instead of
// O(d(v) + p(v)) polynomial evaluations.
func (s *solver) partition(x *call) error {
	b := s.p.bins(x.ell)
	nX := len(x.nodes)
	ds := s.trace.depth(x.depth)
	ds.Partitions++

	wsp := s.wsp
	dx := graph.Grow(wsp.dx, s.bign)
	wsp.dx = dx
	for _, v := range x.nodes {
		dx[v] = int32(s.degreeIn(v, x.id))
	}
	if err := s.auditCall(x, dx); err != nil {
		return err
	}

	f1, err := hashing.NewFamily(s.p.Independence, int64(s.bign), int64(b), 24)
	if err != nil {
		return fmt.Errorf("node hash family: %w", err)
	}
	f2, err := hashing.NewFamily(s.p.Independence, s.colorDomain, int64(b-1), 24)
	if err != nil {
		return fmt.Errorf("color hash family: %w", err)
	}

	// Table geometry: packed mode masks span (b-1) color bins × W words.
	packed := !s.p.CompactPalettes
	w := 0
	if packed {
		w = s.dom.words
	}
	maskStride := (b - 1) * w

	// The union of live palettes bounds the colors any mask needs; h₂ is
	// evaluated once per distinct live color per candidate instead of once
	// per (node, palette entry). That trade only pays when palettes overlap
	// (range instances: |union| ≪ Σp(v)); on list instances with mostly
	// disjoint palettes the union is nearly as large as Σp(v) and the table
	// build costs more than direct counting, so the masks are skipped and
	// isBad falls back to per-node palCountBin. Either strategy computes the
	// same counts — this is a cost choice, not a behavior change.
	var union graph.PaletteSet
	if packed {
		if cap(wsp.palUnion) < w {
			wsp.palUnion = make([]uint64, w)
		}
		union = graph.PaletteSet(wsp.palUnion[:w])
		union.Clear()
		sumPal := 0
		for _, v := range x.nodes {
			if s.color[v] == graph.NoColor {
				s.pal[v].unionInto(union)
				sumPal += s.pal[v].size
			}
		}
		if 2*union.Len() > sumPal {
			maskStride = 0
		}
	}

	// fillTab tabulates one candidate pair: node → h₁ bin for the call's
	// live nodes, and (in packed mode) per-bin color masks under h₂.
	fillTab := func(p derand.Pair, bins []int32, masks []uint64) {
		for _, v := range x.nodes {
			if s.color[v] == graph.NoColor {
				bins[v] = int32(p.H1.Eval(int64(v)))
			}
		}
		if masks == nil {
			return
		}
		clear(masks)
		dom := s.dom.colors
		union.ForEach(func(i int) bool {
			bin := int(p.H2.Eval(dom[i]))
			graph.PaletteSet(masks[bin*w : (bin+1)*w]).Add(i)
			return true
		})
	}
	// Candidates fill disjoint table slots from immutable inputs (palettes,
	// colors, hash coefficients), so the batch tabulates in parallel — the
	// same cores the per-node evaluations used to occupy inside the round
	// callbacks this tabulation replaced.
	prepare := func(cands []derand.Pair) {
		wsp.candBase = cands[0].Index
		wsp.candBins = graph.Grow(wsp.candBins, len(cands)*s.bign)
		wsp.candMasks = graph.Grow(wsp.candMasks, len(cands)*maskStride)
		if wsp.pool == nil {
			wsp.pool = fabric.NewWorkPool(0)
		}
		wsp.pool.RunHeavy(len(cands), func(i int) {
			var masks []uint64
			if maskStride > 0 {
				masks = wsp.candMasks[i*maskStride : (i+1)*maskStride]
			}
			fillTab(cands[i], wsp.candBins[i*s.bign:(i+1)*s.bign], masks)
		})
	}

	degSlack := s.p.degSlack(x.ell)
	palSlack := s.p.palSlack(x.ell)
	// isBad evaluates Definition 3.1 for one node against a candidate's
	// tables. h2 is only consulted on the compact-palette path (masks nil).
	isBad := func(v int32, bins []int32, masks []uint64, h2 hashing.Hash) (int64, bool) {
		myBin := bins[v]
		dPrime := 0
		for _, u := range s.g.Neighbors(v) {
			if s.callOf[u] == int32(x.id) && s.color[u] == graph.NoColor && bins[u] == myBin {
				dPrime++
			}
		}
		bad := math.Abs(float64(dPrime)-float64(dx[v])/float64(b)) > degSlack
		if !bad && int(myBin) < b-1 {
			var pPrime int
			if masks != nil {
				pPrime = s.palCountMask(v, masks[int(myBin)*w:(int(myBin)+1)*w])
			} else {
				pPrime = s.palCountBin(v, h2, int64(myBin))
			}
			// Palette goodness (Def. 3.1): p′(v) ≥ p(v)/B + ℓ^0.7. The
			// slack is capped at half the splitting gap
			// p(v)·(1/(B−1) − 1/B); with B = ⌊ℓ^0.1⌋ and p(v) > ℓ the gap
			// is ≥ ℓ^0.8 ≫ ℓ^0.7, so in the paper's regime the cap is
			// inactive and the condition is the paper's verbatim. Outside
			// it (small ℓ, forced wide bins) the capped condition is the
			// one the Lemma 3.6 argument actually supports.
			p := float64(s.palSize(v))
			slack := palSlack
			if gap := p / (2 * float64(b) * float64(b-1)); gap < slack {
				slack = gap
			}
			if float64(pPrime) < p/float64(b)+slack {
				bad = true
			}
		}
		return int64(myBin), bad
	}

	sel := &derand.VecSelector{
		F1:         f1,
		F2:         f2,
		PerCand:    1 + b,
		BatchWidth: s.p.BatchWidth,
		MaxBatches: s.p.MaxBatches,
		Salt:       uint64(x.id) * 0x9e3779b9,
		WS:         &s.wsp.sel,
		Prepare:    prepare,
	}
	binThresh := 2*float64(nX)/float64(b) + math.Pow(float64(s.bign), s.p.BinSizeSlackExp)
	score := func(totals []int64) int64 {
		q := totals[0]
		for bin := 0; bin < b; bin++ {
			if float64(totals[1+bin]) >= binThresh {
				q += int64(s.bign)
			}
		}
		return q
	}
	target := s.p.target(s.bign, x.ell)
	ds.BadBound += target
	if s.p.AcceptFirstSeed {
		target = 1<<62 - 1 // ablation A1: candidate 0 always wins
	}
	s.fab.Ledger().SetPhase("partition:select")
	res, err := sel.Select(s.fab, s.pw, target, func(wk int, p derand.Pair, vec []int64) {
		v := int32(wk)
		if s.callOf[v] != int32(x.id) || s.color[v] != graph.NoColor {
			return
		}
		slot := int(p.Index - wsp.candBase)
		bins := wsp.candBins[slot*s.bign : (slot+1)*s.bign]
		var masks []uint64
		if maskStride > 0 {
			masks = wsp.candMasks[slot*maskStride : (slot+1)*maskStride]
		}
		myBin, bad := isBad(v, bins, masks, p.H2)
		vec[1+myBin] = 1
		if bad {
			vec[0] = 1
		}
	}, score)
	if err != nil {
		return err
	}
	ds.SeedCandidates += res.Stats.Candidates
	ds.SeedBatches += res.Stats.Batches
	for bin := 0; bin < b; bin++ {
		if float64(res.Totals[1+bin]) >= binThresh {
			ds.BadBins++ // must stay 0: the target < 𝔫 forbids bad bins
		}
	}

	// Final classification with the selected pair, through the same tables
	// (rebuilt once for the winner; the batch slots are stale by now).
	h2 := res.Pair.H2
	wsp.winBins = graph.Grow(wsp.winBins, s.bign)
	wsp.winMasks = graph.Grow(wsp.winMasks, maskStride)
	var winMasks []uint64
	if maskStride > 0 {
		winMasks = wsp.winMasks[:maskStride]
	}
	fillTab(res.Pair, wsp.winBins, winMasks)
	binNodes := make([][]int32, b) // bins 0..b-2 are color bins; b-1 is bin B
	var g0Nodes []int32
	for _, v := range x.nodes {
		if s.color[v] != graph.NoColor {
			continue
		}
		myBin, bad := isBad(v, wsp.winBins, winMasks, h2)
		if bad {
			g0Nodes = append(g0Nodes, v)
		} else {
			binNodes[myBin] = append(binNodes[myBin], v)
		}
	}
	ds.BadNodes += len(g0Nodes)

	// Announce badness and bin to in-call neighbors (one round, one word
	// per pair) so every node knows its neighbors' destinations.
	s.fab.Ledger().SetPhase("partition:announce")
	badSet := make(map[int32]struct{}, len(g0Nodes))
	for _, v := range g0Nodes {
		badSet[v] = struct{}{}
	}
	if _, err := s.fab.Round(func(wk int, sb *fabric.SendBuf) {
		v := int32(wk)
		if s.callOf[v] != int32(x.id) || s.color[v] != graph.NoColor {
			return
		}
		word := uint64(wsp.winBins[v])
		if _, hit := badSet[v]; hit {
			word |= 1 << 32
		}
		for _, u := range s.g.Neighbors(v) {
			if s.callOf[u] == int32(x.id) && s.color[u] == graph.NoColor {
				sb.Put(int(u), word)
			}
		}
	}); err != nil {
		return fmt.Errorf("announce round: %w", err)
	}

	childEll := s.p.childEll(x.ell)

	// G0 container is created first (possibly empty) so safety demotions
	// always have a destination.
	x.g0 = s.newCallAllowEmpty(roleG0, g0Nodes, childEll, x.depth+1, x)

	// Phase-1 children: demote under-paletted nodes w.r.t. the h₂
	// restriction *before* materializing it, then restrict survivors.
	x.phase1Left = 0
	for bin := 0; bin < b-1; bin++ {
		var mask graph.PaletteSet
		if maskStride > 0 {
			mask = graph.PaletteSet(winMasks[bin*w : (bin+1)*w])
		}
		nodes := s.demoteForRestriction(x, binNodes[bin], h2, int64(bin), mask)
		if len(nodes) == 0 {
			continue
		}
		for _, v := range nodes {
			if mask != nil {
				s.palRestrictMask(v, mask)
			} else {
				s.palRestrict(v, h2, int64(bin))
			}
		}
		child := s.newCall(rolePhase1, nodes, childEll, x.depth+1, x)
		x.phase1Left++
		s.runnable = append(s.runnable, child)
	}

	// Bin B child: gated until all phase-1 subtrees complete.
	x.binB = s.newCall(roleBinB, binNodes[b-1], childEll, x.depth+1, x)
	x.partitions = true

	if x.phase1Left == 0 {
		s.launchBinB(x)
	}
	return nil
}

// newCallAllowEmpty registers a call even with no nodes (used for G0
// containers, which may gain nodes later via demotion).
func (s *solver) newCallAllowEmpty(role callRole, nodes []int32, ell float64, depth int, parent *call) *call {
	c := &call{id: s.nextID, role: role, nodes: nodes, ell: ell, depth: depth, parent: parent}
	s.nextID++
	s.calls[c.id] = c
	for _, v := range nodes {
		s.callOf[v] = int32(c.id)
	}
	return c
}

// demoteForRestriction filters a prospective color-bin child: any node
// whose restricted palette would not strictly exceed its degree within the
// child moves to G0 instead (runtime safety net; ExtraBad in the trace).
// Iterates to a fixpoint since each removal lowers neighbors' degrees.
// mask, when non-nil, is the winner's packed color mask for this bin;
// compact mode passes nil and falls back to per-color h₂ evaluation.
func (s *solver) demoteForRestriction(x *call, nodes []int32, h2 hashing.Hash, bin int64, mask graph.PaletteSet) []int32 {
	if len(nodes) == 0 {
		return nodes
	}
	member := make(map[int32]struct{}, len(nodes))
	for _, v := range nodes {
		member[v] = struct{}{}
	}
	pPrime := make(map[int32]int, len(nodes))
	for _, v := range nodes {
		if mask != nil {
			pPrime[v] = s.palCountMask(v, mask)
		} else {
			pPrime[v] = s.palCountBin(v, h2, bin)
		}
	}
	for {
		var demote []int32
		for _, v := range nodes {
			if _, in := member[v]; !in {
				continue
			}
			d := 0
			for _, u := range s.g.Neighbors(v) {
				if _, in := member[u]; in {
					d++
				}
			}
			if pPrime[v] <= d {
				demote = append(demote, v)
			}
		}
		if len(demote) == 0 {
			break
		}
		s.trace.depth(x.depth + 1).ExtraBad += len(demote)
		for _, v := range demote {
			delete(member, v)
			x.g0.nodes = append(x.g0.nodes, v)
			s.callOf[v] = int32(x.g0.id)
		}
	}
	kept := make([]int32, 0, len(member))
	for _, v := range nodes {
		if _, in := member[v]; in {
			kept = append(kept, v)
		}
	}
	return kept
}

// auditCall checks the Corollary 3.3 premises on a Partition input and
// records outcomes. (iii) d(v) < p(v) is load-bearing for correctness and
// is a hard error; (i) and (ii) are recorded (they can miss at laptop-scale
// constants without affecting correctness). dx is indexed by node id and
// valid for the call's nodes.
func (s *solver) auditCall(x *call, dx []int32) error {
	a := &s.trace.Audit
	slack := x.ell + s.p.palSlack(x.ell)
	for _, v := range x.nodes {
		if s.color[v] != graph.NoColor {
			continue
		}
		a.Checked++
		p := s.palSize(v)
		d := int(dx[v])
		if !(x.ell < float64(p)) {
			a.EllBelowPalette++
		}
		if float64(d) > slack {
			a.DegreeAboveEll++
		}
		if d >= p {
			a.PaletteNotAboveDeg++
			return fmt.Errorf("invariant violation: node %d has d=%d ≥ p=%d", v, d, p)
		}
	}
	return nil
}
