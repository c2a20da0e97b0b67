package fabric

import (
	"fmt"
	"slices"
	"sync"
)

// Flat-buffer round fabric: instead of materializing one Msg (and one Words
// slice) per message per round, a round's outgoing traffic is staged in
// per-worker contiguous []uint64 arenas as length-prefixed frames
//
//	header, payload...
//
// (one header word: destination and payload length; the sender is whose
// arena the frame sits in) and delivered by a counting sort over
// destinations. Inbox Msg.Words are zero-copy views into the staging
// arenas, and the arenas are recycled across rounds through a sync.Pool, so
// the steady-state round executes with no per-message heap allocation on
// the fabric side.
//
// Lifetime contract: the inboxes a fabric round returns reference pooled
// arenas and are valid only until the next Round call on the same fabric.
// Every consumer that needs data across rounds must copy it out — all
// in-tree callers already do.

// frameHeader is the number of header words per frame. The sender is
// implied by whose arena a frame sits in, and destination and payload
// length both fit in 32 bits, so one word carries the whole header:
// destination in the low half (two's complement, so out-of-range negatives
// survive the round trip to be rejected at delivery), payload word count in
// the high half. Announce-style rounds move 1-word payloads, so header
// width is the dominant arena traffic — 1 word instead of 3 halves it.
const frameHeader = 1

func packHeader(to, n int) uint64 {
	return uint64(uint32(int32(to))) | uint64(uint32(n))<<32
}

func unpackHeader(h uint64) (to, n int) {
	return int(int32(uint32(h))), int(h >> 32)
}

// SendBuf stages one worker's outgoing frames for one round in a contiguous
// arena. It is handed to staging callbacks by Fabric.Round; the zero value
// is ready for use after reset.
type SendBuf struct {
	from int
	buf  []uint64
	nmsg int
}

func (sb *SendBuf) reset(from int) {
	sb.from = from
	sb.buf = sb.buf[:0]
	sb.nmsg = 0
}

// Begin reserves a frame addressed to `to` with an n-word payload and
// returns the payload slice for the caller to fill in place. The slice
// must be filled before the next Begin/Put on the same SendBuf: a later
// reservation may grow the arena and reallocate it, detaching earlier
// payload slices. Destinations are validated at delivery, in staging
// order, so a round reports its first bad frame however it was staged.
func (sb *SendBuf) Begin(to, n int) []uint64 {
	sb.buf = append(sb.buf, packHeader(to, n))
	l := len(sb.buf)
	if cap(sb.buf)-l < n {
		grown := make([]uint64, l, 2*(l+n)+64)
		copy(grown, sb.buf)
		sb.buf = grown
	}
	sb.buf = sb.buf[:l+n]
	sb.nmsg++
	return sb.buf[l : l+n]
}

// Put stages one message. Passing an existing slice with `words...` does
// not copy it to the heap; the payload is copied into the arena.
func (sb *SendBuf) Put(to int, words ...uint64) {
	copy(sb.Begin(to, len(words)), words)
}

// Reserve pre-grows the arena so the next `words` payload words (plus
// frame headers) stage without any reallocation checks succeeding
// mid-loop. Primitives that know a round's fixed frame shape call it once
// up front, so the per-frame Begin capacity test never triggers a copy.
func (sb *SendBuf) Reserve(frames, words int) {
	need := len(sb.buf) + frames*frameHeader + words
	if cap(sb.buf) < need {
		grown := make([]uint64, len(sb.buf), need+need/2)
		copy(grown, sb.buf)
		sb.buf = grown
	}
}

// RouteError reports a frame rejected at delivery: an out-of-range
// destination, or (when a pair budget is enforced) a per-ordered-pair word
// total exceeding it. Backends translate it into their model-specific error
// types.
type RouteError struct {
	OutOfRange bool
	From, To   int
	Words      int // running (From,To) word total at the violation
	Budget     int
}

func (e *RouteError) Error() string {
	if e.OutOfRange {
		return fmt.Sprintf("fabric: worker %d sent to out-of-range worker %d", e.From, e.To)
	}
	return fmt.Sprintf("fabric: pair (%d→%d) moved %d words (budget %d)", e.From, e.To, e.Words, e.Budget)
}

// DeliverOpts configures one delivery.
type DeliverOpts struct {
	// PairWords > 0 enforces the congested-clique per-ordered-pair word
	// budget, checked in staging order.
	PairWords int
	// GroupOf maps workers to load-accounting groups (MPC machines), and
	// traffic inside a group is free (MPC's machine-local exchange; it is
	// still delivered). nil means per-worker accounting with Groups =
	// workers, where every frame is charged.
	GroupOf []int
	Groups  int
	// Pool, when non-nil, lets Deliver split the destination space into one
	// range per pool worker and sort the ranges concurrently. Inboxes, stats
	// and errors do not depend on the range count; rounds staging fewer than
	// DeliverParallelMinWords run as one range.
	Pool *WorkPool
}

// RoundStats is the traffic profile of one delivered round. SendLoad and
// RecvLoad are per group and borrowed from the RoundBuffer: valid until its
// next Deliver, and valid only at the indices listed in Groups — the groups
// that moved charged traffic this round (every other group's load is zero,
// but its array entry may hold a stale value from an earlier round).
type RoundStats struct {
	TotalWords  int64
	MaxSendLoad int64
	MaxRecvLoad int64
	SendLoad    []int64
	RecvLoad    []int64
	Groups      []int32 // groups with nonzero charged traffic, ascending
}

// RoundBuffer holds the pooled arenas and scratch state for flat rounds.
// Backends acquire one per round (releasing the previous round's buffer,
// whose inbox data is dead by the lifetime contract) so arenas recycle
// across rounds and across fabrics.
type RoundBuffer struct {
	n    int
	send []SendBuf

	cnt       []int32 // per destination: frame count, then fill cursor (epoch-stamped)
	off       []int32 // per destination: msg slab offset (epoch-stamped)
	destStamp []int64 // per destination: epoch of last touch
	gStamp    []int64 // per group: epoch of last charged traffic
	tgroups   []int32 // groups with charged traffic this round
	epoch     int64
	loc       []uint64 // counting-sorted frame locators: sender<<32 | payload offset
	locFrom   []int32  // wide-path senders (offsets no longer fit the packing)
	msgs      []Msg    // header slab; inboxes are windows into it
	inboxes   [][]Msg  // full-length backing; untouched entries stay empty
	sendLoad  []int64
	recvLoad  []int64
	pairCnt   []int32 // per destination, epoch-stamped per sender
	pairStamp []int64
	stamp     int64

	// The current delivery's shape, read by the range phases.
	nr        int   // destination ranges
	groupOf   []int // DeliverOpts.GroupOf
	groups    int
	pairWords int
	stampBase int64 // sender w stamps pair budgets with stampBase+w+1
	wide      bool  // locators carry full-width offsets plus locFrom

	// Per-range state. Every shared per-destination array above is written
	// at disjoint indices (each range owns a contiguous destination
	// interval); everything that cannot be destination-owned lands here and
	// is merged serially between the two range phases.
	rangeTouch [][]int32        // per range: touched destinations (sorted); kept to reset inboxes
	rangeErr   []deliverErrCand // per range: earliest staging-order violation
	grpSend    []int64          // grouped mode: per (range, group) charged send words
	grpRecv    []int64          // grouped mode: per (range, group) charged recv words
	grpHit     []bool           // grouped mode: per (range, group) any charged frame
}

// deliverErrCand is one range's earliest violation, positioned by (sender,
// arena index) so the merge picks the first violation in staging order.
type deliverErrCand struct {
	ok   bool
	w, i int
	err  RouteError
}

// locOffsetLimit is the first arena offset that no longer fits the packed
// sender<<32|offset locator. Arenas at or past it (≥32 GiB staged by one
// sender) take the wide path: full-width offsets in loc with senders in a
// parallel slab. A var so tests can exercise the wide path without staging
// 2³² words.
var locOffsetLimit uint64 = 1 << 32

// DeliverParallelMinWords is the staged-word total below which Deliver
// runs one range and ignores DeliverOpts.Pool: waking parked workers and
// merging per-range state costs more than a small round's counting sort. A
// var so tests can force several ranges on tiny deterministic rounds.
var DeliverParallelMinWords = 1 << 14

// deliverParallelMaxGroups bounds grouped rounds that run several ranges:
// the per-(range, group) merge slabs are O(ranges·groups), which is only
// cheap when groups (MPC machines) is far below the worker domain. Beyond
// it, grouped rounds run as one range.
const deliverParallelMaxGroups = 1 << 13

var roundBufPool = sync.Pool{New: func() any { return new(RoundBuffer) }}

// AcquireRoundBuffer returns a buffer sized for an n-worker round with all
// arenas reset (capacity retained from previous uses).
func AcquireRoundBuffer(n int) *RoundBuffer {
	rb := roundBufPool.Get().(*RoundBuffer)
	rb.n = n
	if cap(rb.send) < n {
		grown := make([]SendBuf, n)
		copy(grown, rb.send)
		rb.send = grown
	}
	rb.send = rb.send[:n]
	for w := 0; w < n; w++ {
		rb.send[w].reset(w)
	}
	return rb
}

// ReleaseRoundBuffer returns a buffer to the pool. The caller must not touch
// the buffer, or any inboxes delivered from it, afterwards.
func ReleaseRoundBuffer(rb *RoundBuffer) { roundBufPool.Put(rb) }

// Sender returns worker w's staging arena for the current round.
func (rb *RoundBuffer) Sender(w int) *SendBuf { return &rb.send[w] }

// grow returns s resliced to length n, reallocating (zeroed) only when its
// capacity falls short; retained entries keep their old values.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Deliver validates and routes the staged frames, returning per-worker
// inboxes sorted exactly as SortInbox orders them: by sender, then by
// lexicographic payload.
//
// The destination space [0,n) splits into nr contiguous ranges, and each
// range counts, scatters, materializes and tie-break-sorts only the frames
// addressed into it. Every range walks every sender's arena in ascending
// order (headers skip payloads, so the rescans stream), which fills each
// destination in ascending sender, then staging, order; only equal-sender
// runs then need the payload sort. Nothing a range computes depends on nr,
// so serial delivery is simply the one-range case, run inline. Deliver
// runs one range unless opts.Pool is wider than one worker, the round
// stages at least DeliverParallelMinWords words, and a grouped round has
// at most deliverParallelMaxGroups groups.
//
// Everything per destination (cnt, off, destStamp, pair budgets, ungrouped
// recvLoad, msgs, inboxes) is written only by the owning range, so the
// shared arrays need no synchronization beyond the pool's round barrier.
// What cannot be destination-owned is merged serially between the two
// range phases: the first staging-order RouteError wins a min-(sender,
// index) merge, ungrouped send loads fall out of arena sizes (every frame
// is charged when no traffic is free), and grouped loads sum per-(range,
// group) partials.
//
// Per-destination and per-group state is epoch-stamped and driven off
// lists of the destinations actually touched, so apart from one length
// check per sender a round's delivery cost scales with its live traffic,
// not with the full worker domain.
func (rb *RoundBuffer) Deliver(opts DeliverOpts) ([][]Msg, RoundStats, error) {
	n := rb.n
	groups := opts.Groups
	groupOf := opts.GroupOf
	if groupOf == nil {
		groups = n
	}
	rb.epoch++
	ep := rb.epoch
	// Reset the inbox entries the previous round on this buffer populated;
	// everything else is empty by invariant.
	for _, touch := range rb.rangeTouch {
		for _, d := range touch {
			rb.inboxes[d] = nil
		}
	}
	rb.tgroups = rb.tgroups[:0]
	rb.cnt = grow(rb.cnt, n)
	rb.off = grow(rb.off, n)
	rb.destStamp = grow(rb.destStamp, n)
	rb.sendLoad = grow(rb.sendLoad, groups)
	rb.recvLoad = grow(rb.recvLoad, groups)
	rb.gStamp = grow(rb.gStamp, groups)
	rb.inboxes = grow(rb.inboxes, n) // all nil: last round's entries were just reset
	if opts.PairWords > 0 {
		rb.pairCnt = grow(rb.pairCnt, n)
		if cap(rb.pairStamp) < n {
			rb.pairStamp = make([]int64, n)
			rb.stamp = 0
		}
		rb.pairStamp = rb.pairStamp[:n]
	}

	staged, maxArena := 0, 0
	for w := 0; w < n; w++ {
		l := len(rb.send[w].buf)
		staged += l
		if l > maxArena {
			maxArena = l
		}
	}
	nr := 1
	if opts.Pool != nil && staged >= DeliverParallelMinWords &&
		(groupOf == nil || groups <= deliverParallelMaxGroups) {
		nr = min(opts.Pool.Workers(), n)
	}
	rb.nr, rb.groupOf, rb.groups, rb.pairWords = nr, groupOf, groups, opts.PairWords
	rb.wide = uint64(maxArena) >= locOffsetLimit
	// Reserve a pair-budget stamp per sender up front, so ranges visiting
	// senders concurrently stamp deterministically; stamps stay strictly
	// increasing across rounds.
	rb.stampBase = rb.stamp
	rb.stamp += int64(n)
	rb.rangeTouch = grow(rb.rangeTouch, nr)
	rb.rangeErr = grow(rb.rangeErr, nr)
	if groupOf != nil {
		rb.grpSend = grow(rb.grpSend, nr*groups)
		rb.grpRecv = grow(rb.grpRecv, nr*groups)
		rb.grpHit = grow(rb.grpHit, nr*groups)
		clear(rb.grpSend)
		clear(rb.grpRecv)
		clear(rb.grpHit)
	}

	rb.forRanges(opts.Pool, (*RoundBuffer).countRange)

	// Error merge: the earliest (sender, staging index) violation across
	// ranges is the round's error.
	var best *deliverErrCand
	for r := 0; r < nr; r++ {
		c := &rb.rangeErr[r]
		if c.ok && (best == nil || c.w < best.w || (c.w == best.w && c.i < best.i)) {
			best = c
		}
	}
	if best != nil {
		e := best.err
		return nil, RoundStats{}, &e
	}

	// Group accounting merge.
	var total int64
	if groupOf == nil {
		// Per-worker groups with nothing free: every staged frame is
		// charged, so a sender's load is exactly its arena's payload words
		// and the touched destinations are the group set's receive side.
		for w := 0; w < n; w++ {
			sb := &rb.send[w]
			if sb.nmsg == 0 {
				continue
			}
			words := int64(len(sb.buf)) - int64(sb.nmsg)*frameHeader
			if rb.gStamp[w] != ep {
				rb.gStamp[w] = ep
				rb.tgroups = append(rb.tgroups, int32(w))
				if rb.destStamp[w] != ep {
					rb.recvLoad[w] = 0 // sends but receives nothing
				}
			}
			rb.sendLoad[w] = words
			total += words
		}
		for _, touch := range rb.rangeTouch {
			for _, d := range touch {
				if rb.gStamp[d] != ep {
					rb.gStamp[d] = ep
					rb.tgroups = append(rb.tgroups, d)
					rb.sendLoad[d] = 0 // receives but sends nothing
				}
			}
		}
		if !slices.IsSorted(rb.tgroups) {
			slices.Sort(rb.tgroups)
		}
	} else {
		for g := 0; g < groups; g++ {
			hit := false
			var sw, rw int64
			for r := 0; r < nr; r++ {
				if rb.grpHit[r*groups+g] {
					hit = true
				}
				sw += rb.grpSend[r*groups+g]
				rw += rb.grpRecv[r*groups+g]
			}
			if !hit {
				continue
			}
			rb.gStamp[g] = ep
			rb.tgroups = append(rb.tgroups, int32(g)) // ascending by construction
			rb.sendLoad[g] = sw
			rb.recvLoad[g] = rw
			total += sw
		}
	}

	// Prefix offsets over the touched destinations, ascending (ranges are
	// ascending intervals); each range then fills a contiguous region of
	// loc/msgs.
	nmsg := 0
	for _, touch := range rb.rangeTouch {
		for _, d := range touch {
			rb.off[d] = int32(nmsg)
			nmsg += int(rb.cnt[d])
			rb.cnt[d] = 0 // reuse as fill cursor
		}
	}
	rb.loc = grow(rb.loc, nmsg)
	if rb.wide {
		rb.locFrom = grow(rb.locFrom, nmsg)
	}
	rb.msgs = grow(rb.msgs, nmsg)

	rb.forRanges(opts.Pool, (*RoundBuffer).fillRange)

	var maxSend, maxRecv int64
	for _, g := range rb.tgroups {
		if rb.sendLoad[g] > maxSend {
			maxSend = rb.sendLoad[g]
		}
		if rb.recvLoad[g] > maxRecv {
			maxRecv = rb.recvLoad[g]
		}
	}
	return rb.inboxes, RoundStats{
		TotalWords:  total,
		MaxSendLoad: maxSend,
		MaxRecvLoad: maxRecv,
		SendLoad:    rb.sendLoad,
		RecvLoad:    rb.recvLoad,
		Groups:      rb.tgroups,
	}, nil
}

// forRanges runs phase once per destination range: inline when there is
// one range (no pool wake-up, no closure), across the pool otherwise.
func (rb *RoundBuffer) forRanges(pool *WorkPool, phase func(rb *RoundBuffer, r int)) {
	if rb.nr == 1 {
		phase(rb, 0)
		return
	}
	pool.RunHeavy(rb.nr, func(r int) { phase(rb, r) })
}

// countRange is Deliver's first range phase: validate, enforce pair
// budgets, count frames per destination, and accumulate receive (and
// grouped) loads for the destinations in range r.
func (rb *RoundBuffer) countRange(r int) {
	n, ep, groupOf, groups := rb.n, rb.epoch, rb.groupOf, rb.groups
	lo := r * n / rb.nr
	hi := (r + 1) * n / rb.nr
	touch := rb.rangeTouch[r][:0]
	var cand deliverErrCand
	var gSend, gRecv []int64
	var gHit []bool
	if groupOf != nil {
		gSend = rb.grpSend[r*groups : (r+1)*groups]
		gRecv = rb.grpRecv[r*groups : (r+1)*groups]
		gHit = rb.grpHit[r*groups : (r+1)*groups]
	}
	for w := 0; w < n; w++ {
		buf := rb.send[w].buf
		if len(buf) == 0 {
			continue
		}
		st := rb.stampBase + int64(w) + 1
		gw := w
		if groupOf != nil {
			gw = groupOf[w]
		}
		for i := 0; i < len(buf); {
			to, nw := unpackHeader(buf[i])
			fi := i
			i += frameHeader + nw
			if to < lo || to >= hi {
				// Another range's frame — except invalid destinations,
				// which belong to no range: every range spots those, so
				// the merge still sees the staging-order first.
				if (to < 0 || to >= n) && !cand.ok {
					cand = deliverErrCand{ok: true, w: w, i: fi,
						err: RouteError{OutOfRange: true, From: w, To: to}}
				}
				continue
			}
			if rb.pairWords > 0 {
				if rb.pairStamp[to] != st {
					rb.pairStamp[to] = st
					rb.pairCnt[to] = 0
				}
				rb.pairCnt[to] += int32(nw)
				if int(rb.pairCnt[to]) > rb.pairWords && !cand.ok {
					cand = deliverErrCand{ok: true, w: w, i: fi,
						err: RouteError{From: w, To: to, Words: int(rb.pairCnt[to]), Budget: rb.pairWords}}
				}
			}
			if rb.destStamp[to] != ep {
				rb.destStamp[to] = ep
				rb.cnt[to] = 0
				if groupOf == nil {
					rb.recvLoad[to] = 0
				}
				touch = append(touch, int32(to))
			}
			rb.cnt[to]++
			if groupOf == nil {
				rb.recvLoad[to] += int64(nw)
			} else if gt := groupOf[to]; gt != gw {
				gSend[gw] += int64(nw)
				gRecv[gt] += int64(nw)
				gHit[gw] = true
				gHit[gt] = true
			}
		}
	}
	if !slices.IsSorted(touch) {
		slices.Sort(touch)
	}
	rb.rangeTouch[r] = touch
	rb.rangeErr[r] = cand
}

// fillRange is Deliver's second range phase, fused: scatter locators for
// range r's destinations, then materialize their Msgs and tie-break-sort
// their inboxes. A range reads only locator slots it wrote itself, so no
// barrier is needed between the scatter and the sweep.
//
// The scattered (random-order) stores are 8-byte pointer-free locators —
// sender and payload offset packed in one word — which stay cache-resident
// and take no write barriers; the 40-byte Msg structs are then materialized
// in a sequential sweep over the sorted locators. Scattering the Msg
// structs directly was measured and lost: random 40-byte stores with
// pointer write barriers dominated delivery. If any sender's arena outgrew
// the packed offset range, senders ride in a parallel slab instead (the
// wide path).
func (rb *RoundBuffer) fillRange(r int) {
	n, wide := rb.n, rb.wide
	lo := r * n / rb.nr
	hi := (r + 1) * n / rb.nr
	for w := 0; w < n; w++ {
		buf := rb.send[w].buf
		for i := 0; i < len(buf); {
			to, nw := unpackHeader(buf[i])
			plo := i + frameHeader
			i = plo + nw
			if to < lo || to >= hi {
				continue
			}
			idx := rb.off[to] + rb.cnt[to]
			rb.cnt[to]++
			if wide {
				rb.loc[idx] = uint64(plo)
				rb.locFrom[idx] = int32(w)
			} else {
				rb.loc[idx] = uint64(w)<<32 | uint64(uint32(plo))
			}
		}
	}
	for _, d := range rb.rangeTouch[r] {
		mlo := rb.off[d]
		mhi := mlo + rb.cnt[d] // the fill cursor ends at d's frame count
		for idx := mlo; idx < mhi; idx++ {
			var from, plo int
			if wide {
				from, plo = int(rb.locFrom[idx]), int(rb.loc[idx])
			} else {
				l := rb.loc[idx]
				from, plo = int(l>>32), int(uint32(l))
			}
			buf := rb.send[from].buf
			_, nw := unpackHeader(buf[plo-1])
			phi := plo + nw
			rb.msgs[idx] = Msg{To: int(d), From: from, Words: buf[plo:phi:phi]}
		}
		// Order equal-sender runs by payload (SortInbox's tie-break; runs
		// are per ordered pair and tiny).
		in := rb.msgs[mlo:mhi]
		rb.inboxes[d] = in
		for i := 1; i < len(in); {
			if in[i].From != in[i-1].From {
				i++
				continue
			}
			j := i - 1
			for i < len(in) && in[i].From == in[j].From {
				i++
			}
			insertionSortByWords(in[j:i])
		}
	}
}

// insertionSortByWords orders an equal-sender run lexicographically by
// payload. Runs are bounded by the per-pair message count (a small constant
// under the bandwidth budget), so insertion sort wins over sort.Slice and
// allocates nothing.
func insertionSortByWords(run []Msg) {
	for i := 1; i < len(run); i++ {
		m := run[i]
		j := i - 1
		for j >= 0 && lessWords(m.Words, run[j].Words) {
			run[j+1] = run[j]
			j--
		}
		run[j+1] = m
	}
}
