package sketch

import (
	"cmp"
	"fmt"
	"slices"
)

// Window is the bounded-state sliding-window aggregate: count, sum, min, and
// max over the last W values of the stream. "Last" is defined by the global
// stream position each Push carries, not by arrival order — the parallel
// path delivers pages to lanes out of order (and replays retired lanes'
// chunks late), so the block keeps the W entries with the largest positions
// and evicts by position. Positions are unique per row, which makes the kept
// set — and therefore the merged aggregate — identical to the serial path's,
// whatever the sharding or replay interleaving.
//
// The common case is a lane whose positions only increase, and it runs as a
// ring buffer: each push overwrites the oldest slot in O(1), and a batch
// longer than W touches only its last W values. The first push that does not
// extend the stream (an earlier page arriving late) rotates the ring into
// position order — a sorted slice is already a valid min-heap on position —
// and the block continues as the general min-heap from then on. Merge and
// MarshalBinary read both forms in position order, so a merge is one pass
// from the newest end that leaves a ring behind, and encoding a ring needs
// no sort. Both representations keep the same set, so the switch is
// invisible.
type Window struct {
	blockBase
	w int
	// h holds the retained entries. As a ring (heap false) it is in position
	// order starting at head, and head stays 0 until the ring is full; as a
	// heap it is a min-heap on position.
	h    posHeap
	head int
	heap bool
}

// winEntry is one retained (position, value) pair.
type winEntry struct {
	pos int64
	val int64
}

// posHeap is a min-heap on stream position, maintained by the hand-rolled
// siftUp/siftDown below: container/heap would box every winEntry through an
// interface value.
type posHeap []winEntry

// siftUp restores the min-heap property after appending at index i.
func siftUp(h posHeap, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].pos <= h[i].pos {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the min-heap property at index i.
func siftDown(h posHeap, i int) {
	n := len(h)
	for {
		l, r, smallest := 2*i+1, 2*i+2, i
		if l < n && h[l].pos < h[smallest].pos {
			smallest = l
		}
		if r < n && h[r].pos < h[smallest].pos {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// NewWindow returns a window over the last w values. w = 0 is legal and
// aggregates nothing (count stays 0); w larger than the stream keeps
// everything.
func NewWindow(w int) *Window {
	if w < 0 {
		w = 0
	}
	return &Window{w: w}
}

// Kind implements StatBlock.
func (w *Window) Kind() Kind { return KindWindow }

// Name implements StatBlock.
func (w *Window) Name() string { return "window" }

// W returns the configured window width.
func (w *Window) W() int { return w.w }

// Push implements StatBlock.
func (w *Window) Push(pos, v int64) {
	w.PushBatch(pos, []int64{v})
}

// PushBatch implements StatBlock: value i carries position pos+i.
func (w *Window) PushBatch(pos int64, vals []int64) {
	w.items += int64(len(vals))
	if w.w == 0 || len(vals) == 0 {
		return
	}
	if len(vals) > w.w {
		// Only the batch's last W positions can survive it.
		pos += int64(len(vals) - w.w)
		vals = vals[len(vals)-w.w:]
	}
	if !w.heap && len(w.h) > 0 && pos <= w.last() {
		w.toHeap()
	}
	if w.heap {
		for _, v := range vals {
			w.push1(pos, v)
			pos++
		}
		return
	}
	i := 0
	for ; i < len(vals) && len(w.h) < w.w; i++ {
		w.h = append(w.h, winEntry{pos: pos + int64(i), val: vals[i]})
	}
	h, head := w.h, w.head
	for ; i < len(vals); i++ {
		h[head] = winEntry{pos: pos + int64(i), val: vals[i]}
		if head++; head == len(h) {
			head = 0
		}
	}
	w.head = head
}

// last returns the ring's newest position (the ring must be non-empty).
func (w *Window) last() int64 {
	if w.head == 0 {
		return w.h[len(w.h)-1].pos
	}
	return w.h[w.head-1].pos
}

// toHeap rotates the ring into position order in place, which is already a
// valid min-heap, and switches the block to the heap representation.
func (w *Window) toHeap() {
	slices.Reverse(w.h[:w.head])
	slices.Reverse(w.h[w.head:])
	slices.Reverse(w.h)
	w.head, w.heap = 0, true
}

// push1 is the heap path: keep the entry when the window has room or when
// it is later than the oldest retained position.
func (w *Window) push1(pos, v int64) {
	if len(w.h) < w.w {
		w.h = append(w.h, winEntry{pos: pos, val: v})
		siftUp(w.h, len(w.h)-1)
		return
	}
	if pos > w.h[0].pos {
		w.h[0] = winEntry{pos: pos, val: v}
		siftDown(w.h, 0)
	}
}

// Aggregate is the windowed result.
type Aggregate struct {
	// Count is how many values the window holds (min(W, stream length)).
	Count int64
	Sum   int64
	// Min and Max are only meaningful when Count > 0.
	Min, Max int64
}

// Aggregate computes count/sum/min/max over the retained window.
func (w *Window) Aggregate() Aggregate {
	var a Aggregate
	for i, e := range w.h {
		a.Count++
		a.Sum += e.val
		if i == 0 || e.val < a.Min {
			a.Min = e.val
		}
		if i == 0 || e.val > a.Max {
			a.Max = e.val
		}
	}
	return a
}

// ordered returns the retained pairs in position order as two runs read one
// after the other: a ring's two halves as they lie, or a sorted copy of a
// heap. The block itself stays untouched, since encoders may read it
// concurrently.
func (w *Window) ordered() (a, b []winEntry) {
	if !w.heap {
		return w.h[w.head:], w.h[:w.head]
	}
	out := slices.Clone(w.h)
	sortEntries(out)
	return out, nil
}

func sortEntries(es []winEntry) {
	// Positions are unique, so ordering by pos alone is total.
	slices.SortFunc(es, func(x, y winEntry) int { return cmp.Compare(x.pos, y.pos) })
}

// Merge implements StatBlock: the union's W largest positions win, exactly
// reproducing the serial window over the combined stream.
func (w *Window) Merge(other StatBlock) error {
	o, ok := other.(*Window)
	if !ok {
		return fmt.Errorf("sketch: merging %s into window", other.Kind())
	}
	if o.w != w.w {
		return fmt.Errorf("sketch: merging window W=%d into W=%d", o.w, w.w)
	}
	if w.w > 0 && len(o.h) > 0 {
		w.mergeOrdered(o)
	}
	w.absorb(&o.blockBase)
	return nil
}

// mergeOrdered keeps the W largest positions of both windows. It walks both
// in position order from the newest end, so the result comes out sorted and
// the block continues as a ring with its head at 0.
func (w *Window) mergeOrdered(o *Window) {
	a1, a2 := w.ordered()
	b1, b2 := o.ordered()
	at := func(x, y []winEntry, i int) winEntry {
		if i < len(x) {
			return x[i]
		}
		return y[i-len(x)]
	}
	i, j := len(a1)+len(a2)-1, len(b1)+len(b2)-1
	out := make(posHeap, min(w.w, i+j+2))
	for k := len(out) - 1; k >= 0; k-- {
		if j < 0 || (i >= 0 && at(a1, a2, i).pos > at(b1, b2, j).pos) {
			out[k] = at(a1, a2, i)
			i--
		} else {
			out[k] = at(b1, b2, j)
			j--
		}
	}
	w.h, w.head, w.heap = out, 0, false
}
