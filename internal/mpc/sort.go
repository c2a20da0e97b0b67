package mpc

import (
	"fmt"
	"sort"

	"ccolor/internal/fabric"
)

// Lemma 2.1 primitives (Goodrich–Sitchinava–Zhang via [7]): deterministic
// sorting and prefix sums in O(1) rounds with sublinear machine space.
// These are the substrate the paper's §2.1 communication layer stands on;
// ccolor's collectives use the specialized tree forms in internal/fabric,
// and these general forms are exercised by the substrate test suite.
// Both stage their exchanges as flat frames over machine-indexed slices —
// no per-round maps, no per-message Words allocations.

// PrefixSums computes, for every virtual worker w, the exclusive prefix
// Σ_{i<w} local(i), using a fan-in-bounded scan over machines: machine
// subtotals reduce up a tree and offsets sweep back down, with co-hosted
// workers resolved machine-locally. O(tree depth) rounds.
func PrefixSums(c *Cluster, local func(w int) int64) ([]int64, error) {
	n := c.Workers()
	vals := make([]int64, n)
	for w := 0; w < n; w++ {
		vals[w] = local(w)
	}
	// Machine subtotals and the first worker of each machine.
	subtotal := make([]int64, c.machines)
	firstWorker := make([]int, c.machines)
	for m := range firstWorker {
		firstWorker[m] = -1
	}
	for w := 0; w < n; w++ {
		m := c.assign[w]
		subtotal[m] += vals[w]
		if firstWorker[m] < 0 {
			firstWorker[m] = w
		}
	}

	// Up-sweep: blocks of `branch` machines reduce to their leader.
	branch := int(c.space / 4)
	if branch < 2 {
		branch = 2
	}
	type level struct {
		machines []int   // machine IDs at this level, ascending
		sums     []int64 // subtotal of each entry's subtree
	}
	cur := level{machines: make([]int, c.machines), sums: append([]int64(nil), subtotal...)}
	for m := range cur.machines {
		cur.machines[m] = m
	}
	levels := []level{cur}
	for len(cur.machines) > 1 {
		var next level
		for i := 0; i < len(cur.machines); i += branch {
			end := i + branch
			if end > len(cur.machines) {
				end = len(cur.machines)
			}
			var s int64
			for j := i; j < end; j++ {
				s += cur.sums[j]
			}
			next.machines = append(next.machines, cur.machines[i])
			next.sums = append(next.sums, s)
		}
		// One real round: block members ship their subtree sums to the
		// block leader (addressed via the leader machine's first worker).
		if _, err := c.Round(func(w int, sb *fabric.SendBuf) {
			for i := 0; i < len(cur.machines); i += branch {
				end := i + branch
				if end > len(cur.machines) {
					end = len(cur.machines)
				}
				for j := i + 1; j < end; j++ {
					if firstWorker[cur.machines[j]] != w {
						continue
					}
					sb.Put(firstWorker[cur.machines[i]], uint64(cur.sums[j]))
				}
			}
		}); err != nil {
			return nil, err
		}
		levels = append(levels, next)
		cur = next
	}

	// Down-sweep: leaders hand each block member its offset (the leader's
	// offset plus the sums of earlier members). Offsets live in a
	// machine-indexed slice; hasOff marks the machines resolved so far.
	offsets := make([]int64, c.machines)
	hasOff := make([]bool, c.machines)
	nextHas := make([]bool, c.machines)
	hasOff[cur.machines[0]] = true
	for li := len(levels) - 2; li >= 0; li-- {
		lv := levels[li]
		if _, err := c.Round(func(w int, sb *fabric.SendBuf) {
			for i := 0; i < len(lv.machines); i += branch {
				leader := lv.machines[i]
				if !hasOff[leader] || firstWorker[leader] != w {
					continue
				}
				end := i + branch
				if end > len(lv.machines) {
					end = len(lv.machines)
				}
				acc := offsets[leader]
				for j := i; j < end; j++ {
					if j > i {
						sb.Put(firstWorker[lv.machines[j]], uint64(acc))
					}
					acc += lv.sums[j]
				}
			}
		}); err != nil {
			return nil, err
		}
		for m := range nextHas {
			nextHas[m] = false
		}
		for i := 0; i < len(lv.machines); i += branch {
			leader := lv.machines[i]
			if !hasOff[leader] {
				continue
			}
			end := i + branch
			if end > len(lv.machines) {
				end = len(lv.machines)
			}
			acc := offsets[leader]
			for j := i; j < end; j++ {
				offsets[lv.machines[j]] = acc
				nextHas[lv.machines[j]] = true
				acc += lv.sums[j]
			}
		}
		hasOff, nextHas = nextHas, hasOff
	}

	// Machine-local resolution: workers on one machine scan in ID order.
	out := make([]int64, n)
	acc := make([]int64, c.machines)
	copy(acc, offsets)
	for w := 0; w < n; w++ {
		m := c.assign[w]
		out[w] = acc[m]
		acc[m] += vals[w]
	}
	return out, nil
}

// Sort redistributes keys so that worker w ends with the w-th balanced
// chunk of the global sorted order (sample sort / TeraSort): machines sort
// locally, regular samples elect global splitters at machine 0, splitters
// broadcast back, keys route to their bucket's workers, buckets sort
// locally. O(1) rounds; machine space bounds the bucket sizes and is
// enforced by the cluster.
func Sort(c *Cluster, local [][]uint64) ([][]uint64, error) {
	n := c.Workers()
	if len(local) != n {
		return nil, fmt.Errorf("mpc: sort input has %d workers, want %d", len(local), n)
	}
	total := 0
	for _, l := range local {
		total += len(l)
	}
	if total == 0 {
		return make([][]uint64, n), nil
	}

	// Per-machine local sort + regular sampling (oversampling factor 4).
	perMachine := make([][]uint64, c.machines)
	for w, l := range local {
		perMachine[c.assign[w]] = append(perMachine[c.assign[w]], l...)
	}
	samplesPer := 4
	var samples []uint64
	for m := 0; m < c.machines; m++ {
		keys := perMachine[m]
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for s := 1; s <= samplesPer; s++ {
			if len(keys) == 0 {
				break
			}
			samples = append(samples, keys[(len(keys)-1)*s/samplesPer])
		}
	}
	// Round 1: machines send samples to machine 0 (its first worker).
	first0 := 0
	for w := 0; w < n; w++ {
		if c.assign[w] == 0 {
			first0 = w
			break
		}
	}
	if _, err := c.Round(func(w int, sb *fabric.SendBuf) {
		m := c.assign[w]
		if m == 0 || !isFirstOfMachine(c, w) {
			return
		}
		keys := perMachine[m]
		if len(keys) == 0 {
			return
		}
		payload := sb.Begin(first0, samplesPer)
		for s := 1; s <= samplesPer; s++ {
			payload[s-1] = keys[(len(keys)-1)*s/samplesPer]
		}
	}); err != nil {
		return nil, err
	}
	// Machine 0 elects n−1 splitters by regular sampling of the samples.
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	splitters := make([]uint64, n-1)
	for i := 1; i < n; i++ {
		splitters[i-1] = samples[(len(samples)-1)*i/n]
	}
	// Round 2: broadcast splitters (to each machine's first worker).
	if _, err := c.Round(func(w int, sb *fabric.SendBuf) {
		if w != first0 {
			return
		}
		for m := 1; m < c.machines; m++ {
			fw := firstWorkerOf(c, m)
			if fw >= 0 {
				sb.Put(fw, splitters...)
			}
		}
	}); err != nil {
		return nil, err
	}

	// Round 3: route every key to its bucket worker. Each worker counting-
	// sorts its keys by bucket into a flat scratch (stable, so keys stay in
	// local order within a bucket) and ships one frame per bucket.
	bucketOf := func(k uint64) int {
		return sort.Search(len(splitters), func(i int) bool { return k <= splitters[i] })
	}
	result := make([][]uint64, n)
	in, err := c.Round(func(w int, sb *fabric.SendBuf) {
		keys := local[w]
		if len(keys) == 0 {
			return
		}
		cnt := make([]int32, n+1)
		for _, k := range keys {
			cnt[bucketOf(k)+1]++
		}
		for b := 0; b < n; b++ {
			cnt[b+1] += cnt[b]
		}
		flat := make([]uint64, len(keys))
		fill := make([]int32, n)
		for _, k := range keys {
			b := bucketOf(k)
			flat[int(cnt[b])+int(fill[b])] = k
			fill[b]++
		}
		for b := 0; b < n; b++ {
			if b == w || cnt[b] == cnt[b+1] {
				continue // own bucket is delivered locally below
			}
			sb.Put(b, flat[cnt[b]:cnt[b+1]]...)
		}
	})
	if err != nil {
		return nil, err
	}
	for w := 0; w < n; w++ {
		for _, k := range local[w] {
			if bucketOf(k) == w {
				result[w] = append(result[w], k)
			}
		}
		for _, m := range in[w] {
			result[w] = append(result[w], m.Words...)
		}
		sort.Slice(result[w], func(i, j int) bool { return result[w][i] < result[w][j] })
	}
	return result, nil
}

func isFirstOfMachine(c *Cluster, w int) bool {
	return firstWorkerOf(c, c.assign[w]) == w
}

func firstWorkerOf(c *Cluster, m int) int {
	for w := 0; w < c.virtual; w++ {
		if c.assign[w] == m {
			return w
		}
	}
	return -1
}
