package sketch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// SpaceSaving is the k-counter heavy-hitter summary (Metwally et al.): every
// tracked value v carries an over-estimate Count with a per-entry error
// bound, maintaining
//
//	f(v) ≤ Count(v) ≤ f(v) + Err(v)
//
// for the true frequency f, and any value with f(v) > N/k is guaranteed to
// be tracked. Merging sums counters pairwise — a value absent from one side
// is charged that side's minimum count into both Count and Err, since an
// untracked value may have occurred up to min times there — then truncates
// back to the k largest. Each side's minimum is at most N_i/k, so the merged
// ε = N/k error bound survives (the mergeable-summaries result).
//
// Unlike HLL and the window, a merged SpaceSaving summary is byte-identical
// to the serial one only when capacity covers the distinct count (then no
// eviction ever fires and every counter is exact). In the approximate regime
// the summary is order-sensitive and identity under resharding is
// information-theoretically impossible — the property tests check the
// guarantees instead, and DESIGN.md spells the distinction out.
//
// The k counters live in a flat entries arena behind a flat open-addressed
// value→slot index (linear probing, backward-shift delete) presized for a
// merge's 2k counters, so the steady state — hits and evictions alike —
// recycles slots in place and never allocates. Eviction needs no scan of the arena: cand lists the slots
// that held the minimum count when it was last built, largest value last. A
// hit only bumps its counter, so a popped candidate whose count has moved on
// is simply skipped; a newcomer enters at min+1 and never belongs on the
// list. The first candidate still at the minimum is therefore exactly the
// "minimum count, ties toward the largest value" victim, and the list is
// rebuilt in one pass over the arena only once it runs dry.
type SpaceSaving struct {
	blockBase
	k       int
	entries []ssEntry
	index   ssIndex
	cand    []ssCand // eviction candidates, largest value last
	candMin int64    // the count every live candidate holds
}

// ssEntry is one tracked value's state, stored in the arena.
type ssEntry struct {
	val   int64
	count int64 // over-estimate of the value's frequency
	err   int64 // count − err is a guaranteed lower bound
}

// ssCand is one eviction candidate: an arena slot and the value it held.
type ssCand struct {
	val  int64
	slot int32
}

// HeavyHitter is one reported entry.
type HeavyHitter struct {
	Value int64
	// Count over-estimates the value's frequency; Count − Err is a
	// guaranteed lower bound.
	Count int64
	Err   int64
}

// NewSpaceSaving returns a summary with k counters (minimum 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return newSpaceSaving(k, k)
}

// newSpaceSaving returns a k-counter summary with room for n counters, and
// for a merge's 2n, before its arena or index grows. The decoder sizes n
// from the counters a payload carries rather than from its claimed k.
func newSpaceSaving(k, n int) *SpaceSaving {
	return &SpaceSaving{
		k:       k,
		entries: make([]ssEntry, 0, n),
		index:   newSSIndex(2 * n),
	}
}

// Kind implements StatBlock.
func (s *SpaceSaving) Kind() Kind { return KindSpaceSaving }

// Name implements StatBlock.
func (s *SpaceSaving) Name() string { return "spacesaving" }

// Capacity returns k.
func (s *SpaceSaving) Capacity() int { return s.k }

// Push implements StatBlock. A full summary evicts the minimum counter —
// ties broken toward the largest value, so eviction is deterministic — and
// the newcomer inherits the evicted count as its error bound.
func (s *SpaceSaving) Push(_, v int64) {
	s.items++
	s.observe(v)
}

// PushBatch implements StatBlock.
func (s *SpaceSaving) PushBatch(_ int64, vals []int64) {
	s.items += int64(len(vals))
	for _, v := range vals {
		s.observe(v)
	}
}

func (s *SpaceSaving) observe(v int64) {
	if i := s.index.find(v); i >= 0 {
		s.entries[i].count++
		return
	}
	s.admit(v)
}

// admit tracks a previously-unseen value, evicting the minimum counter when
// the summary is full. The evicted slot is recycled in place — no
// allocation on the steady-state path.
func (s *SpaceSaving) admit(v int64) {
	if len(s.entries) < s.k {
		s.insertRaw(v, 1, 0)
		return
	}
	victim := s.popVictim()
	minCount := s.entries[victim].count
	s.index.remove(s.entries[victim].val)
	s.entries[victim] = ssEntry{val: v, count: minCount + 1, err: minCount}
	s.index.insert(v, victim)
}

// popVictim returns the slot to evict: the first candidate still at the
// minimum count, rebuilding the candidate list when none is left.
func (s *SpaceSaving) popVictim() int32 {
	for {
		for n := len(s.cand); n > 0; n = len(s.cand) {
			c := s.cand[n-1]
			s.cand = s.cand[:n-1]
			if s.entries[c.slot].count == s.candMin {
				return c.slot
			}
		}
		s.rebuildCandidates()
	}
}

// rebuildCandidates lists every slot at the arena's minimum count in one
// pass, then sorts them so the largest value pops first. A list is at most
// k long. At the chain's k=16, sorting with slices.SortFunc alone makes
// BenchmarkBlockPushBatch/spacesaving 18–40% slower than this inlined
// insertion sort on a 2-vCPU x86 host (EXPERIMENTS.md). Past 32
// candidates SortFunc keeps the cost at O(k log k); spacesaving-k256
// covers that path.
func (s *SpaceSaving) rebuildCandidates() {
	c := s.cand[:0]
	min := s.entries[0].count
	for i := range s.entries {
		e := &s.entries[i]
		if e.count > min {
			continue
		}
		if e.count < min {
			min, c = e.count, c[:0]
		}
		c = append(c, ssCand{val: e.val, slot: int32(i)})
	}
	if len(c) > 32 {
		slices.SortFunc(c, func(a, b ssCand) int { return cmp.Compare(a.val, b.val) })
	} else {
		for i := 1; i < len(c); i++ {
			x, j := c[i], i
			for ; j > 0 && c[j-1].val > x.val; j-- {
				c[j] = c[j-1]
			}
			c[j] = x
		}
	}
	s.cand, s.candMin = c, min
}

// insertRaw installs a counter verbatim (admission below capacity, merge
// spill, decode). Unlike eviction it may grow the arena past k; Merge
// truncates afterwards.
func (s *SpaceSaving) insertRaw(v, count, errBound int64) {
	s.entries = append(s.entries, ssEntry{val: v, count: count, err: errBound})
	s.index.insert(v, int32(len(s.entries)-1))
}

// Top returns up to n entries ordered by count descending, ties by value
// ascending — the same deterministic order the binary encoding uses.
func (s *SpaceSaving) Top(n int) []HeavyHitter {
	out := make([]HeavyHitter, 0, len(s.entries))
	for i := range s.entries {
		e := &s.entries[i]
		out = append(out, HeavyHitter{Value: e.val, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Estimate returns the count bounds for one value. ok is false when the
// value is untracked, in which case its true frequency is at most the
// summary's minimum count.
func (s *SpaceSaving) Estimate(v int64) (hh HeavyHitter, ok bool) {
	i := s.index.find(v)
	if i < 0 {
		return HeavyHitter{}, false
	}
	e := &s.entries[i]
	return HeavyHitter{Value: e.val, Count: e.count, Err: e.err}, true
}

// minCount returns the summary's minimum tracked count when at capacity, or
// 0 otherwise — the upper bound on any untracked value's true frequency.
func (s *SpaceSaving) minCount() int64 {
	if len(s.entries) < s.k {
		return 0
	}
	min := int64(-1)
	for i := range s.entries {
		if min < 0 || s.entries[i].count < min {
			min = s.entries[i].count
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// Merge implements StatBlock: counters for the same value sum (counts and
// error bounds both); a value tracked on only one side also absorbs the
// other side's minimum count into count and error, because the value may
// have occurred up to that many times there before being evicted — without
// this the merged Count could undershoot the true frequency and break the
// f ≤ Count invariant. The summary then truncates back to the k largest
// counts, ties kept toward smaller values. When both sides are under
// capacity the minima are zero and the merge is the exact pairwise sum.
func (s *SpaceSaving) Merge(other StatBlock) error {
	o, ok := other.(*SpaceSaving)
	if !ok {
		return fmt.Errorf("sketch: merging %s into spacesaving", other.Kind())
	}
	if o.k != s.k {
		return fmt.Errorf("sketch: merging spacesaving k=%d into k=%d", o.k, s.k)
	}
	minS, minO := s.minCount(), o.minCount()
	for i := range s.entries {
		e := &s.entries[i]
		if o.index.find(e.val) < 0 {
			e.count += minO
			e.err += minO
		}
	}
	for j := range o.entries {
		oe := &o.entries[j]
		if i := s.index.find(oe.val); i >= 0 {
			s.entries[i].count += oe.count
			s.entries[i].err += oe.err
		} else {
			s.insertRaw(oe.val, oe.count+minS, oe.err+minS)
		}
	}
	if len(s.entries) > s.k {
		all := s.Top(0)
		s.entries = s.entries[:0]
		s.index.clear()
		for _, hh := range all[:s.k] {
			s.insertRaw(hh.Value, hh.Count, hh.Err)
		}
	}
	s.cand = s.cand[:0]
	s.absorb(&o.blockBase)
	return nil
}

// ssIndex is the value→slot index: an open-addressed table with linear
// probing, kept at most half full by doubling when an insert would pass
// that. Each bucket stores the value beside its slot so a probe never
// leaves the table; slot+1 is stored so the zero bucket means empty.
type ssIndex struct {
	buckets []ssBucket
	shift   uint8 // 64 − log2(len(buckets))
	n       int   // mapped values
}

type ssBucket struct {
	val  int64
	slot int32 // arena slot + 1; 0 is an empty bucket
}

// newSSIndex returns an index that maps n values without growing.
func newSSIndex(n int) ssIndex {
	size, shift := 8, uint8(61)
	for size < 2*n {
		size, shift = size*2, shift-1
	}
	return ssIndex{buckets: make([]ssBucket, size), shift: shift}
}

// home is a value's first probe: Fibonacci hashing spreads the dense small
// integers real columns hold across the whole table.
func (x *ssIndex) home(v int64) int {
	return int((uint64(v) * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns v's arena slot, or -1 when v is untracked.
func (x *ssIndex) find(v int64) int32 {
	mask := len(x.buckets) - 1
	for i := x.home(v); ; i = (i + 1) & mask {
		b := &x.buckets[i]
		if b.slot == 0 {
			return -1
		}
		if b.val == v {
			return b.slot - 1
		}
	}
}

// insert maps an untracked v to slot.
func (x *ssIndex) insert(v int64, slot int32) {
	if x.n++; 2*x.n > len(x.buckets) {
		x.grow()
	}
	mask := len(x.buckets) - 1
	i := x.home(v)
	for x.buckets[i].slot != 0 {
		i = (i + 1) & mask
	}
	x.buckets[i] = ssBucket{val: v, slot: slot + 1}
}

// remove unmaps a tracked v, shifting later members of its probe run back
// so every remaining value stays reachable from its home bucket.
func (x *ssIndex) remove(v int64) {
	mask := len(x.buckets) - 1
	i := x.home(v)
	// v is tracked, so its probe run reaches it before any empty bucket.
	for x.buckets[i].val != v {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.buckets[j].slot != 0; j = (j + 1) & mask {
		// The bucket at j may fill the hole at i only when its home is not
		// cyclically inside (i, j].
		h := x.home(x.buckets[j].val)
		if (i <= j && (h <= i || h > j)) || (i > j && h <= i && h > j) {
			x.buckets[i] = x.buckets[j]
			i = j
		}
	}
	x.buckets[i] = ssBucket{}
	x.n--
}

// grow doubles the table and re-homes every mapped value.
func (x *ssIndex) grow() {
	old := x.buckets
	x.buckets, x.shift = make([]ssBucket, 2*len(old)), x.shift-1
	mask := len(x.buckets) - 1
	for _, b := range old {
		if b.slot == 0 {
			continue
		}
		i := x.home(b.val)
		for x.buckets[i].slot != 0 {
			i = (i + 1) & mask
		}
		x.buckets[i] = b
	}
}

func (x *ssIndex) clear() {
	clear(x.buckets)
	x.n = 0
}
