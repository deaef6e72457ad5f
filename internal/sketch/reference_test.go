package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// Reference implementations: the straightforward forms of the three blocks —
// a map-backed sparse HLL that promotes to a dense file, a SpaceSaving
// summary with a Go map index and an O(k) min-scan per eviction, and a
// heap-only sliding window. They are the oracle for the production blocks,
// which must reproduce their state bit for bit: same encoding bytes, same
// Items, same Degraded flag, for every stream, order, merge tree and decode.
// The unchanged helpers (hashing, header layout, decoder cursor, heap sifts)
// are shared.

// refHLL is the map-sparse HyperLogLog.
type refHLL struct {
	blockBase
	p      uint8
	m      uint32
	sparse map[uint32]uint8 // nil once dense
	dense  []uint8
}

func newRefHLL(precision int) *refHLL {
	precision = clampPrecision(precision)
	return &refHLL{p: uint8(precision), m: 1 << precision, sparse: map[uint32]uint8{}}
}

func (h *refHLL) Kind() Kind   { return KindHLL }
func (h *refHLL) Name() string { return "ref-hll" }

func (h *refHLL) Push(_, v int64) {
	h.items++
	h.observe(v)
}

func (h *refHLL) PushBatch(_ int64, vals []int64) {
	h.items += int64(len(vals))
	for _, v := range vals {
		h.observe(v)
	}
}

func (h *refHLL) observe(v int64) {
	x := hashValue(v)
	idx := uint32(x >> (64 - h.p))
	rest := x << h.p
	rank := uint8(64 - h.p + 1)
	if rest != 0 {
		rank = uint8(bits.LeadingZeros64(rest)) + 1
	}
	h.set(idx, rank)
}

func (h *refHLL) set(idx uint32, rank uint8) {
	if h.dense != nil {
		if rank > h.dense[idx] {
			h.dense[idx] = rank
		}
		return
	}
	if rank > h.sparse[idx] {
		h.sparse[idx] = rank
	}
	if uint32(len(h.sparse)) > h.m/8 {
		h.promote()
	}
}

func (h *refHLL) promote() {
	h.dense = make([]uint8, h.m)
	for idx, rank := range h.sparse {
		h.dense[idx] = rank
	}
	h.sparse = nil
}

func (h *refHLL) Merge(other StatBlock) error {
	o := other.(*refHLL)
	if o.dense != nil {
		if h.dense == nil {
			h.promote()
		}
		for idx, rank := range o.dense {
			if rank > h.dense[idx] {
				h.dense[idx] = rank
			}
		}
	} else {
		for idx, rank := range o.sparse {
			h.set(idx, rank)
		}
	}
	h.absorb(&o.blockBase)
	return nil
}

func (h *refHLL) MarshalBinary() ([]byte, error) {
	out := appendHeader(nil, KindHLL, h.degraded, h.items)
	out = append(out, h.p)
	if h.dense != nil {
		out = append(out, 1)
		out = binary.LittleEndian.AppendUint32(out, h.m)
		return append(out, h.dense...), nil
	}
	out = append(out, 0)
	idxs := make([]uint32, 0, len(h.sparse))
	for idx := range h.sparse {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	out = binary.LittleEndian.AppendUint32(out, uint32(len(idxs)))
	for _, idx := range idxs {
		out = binary.LittleEndian.AppendUint32(out, idx)
		out = append(out, h.sparse[idx])
	}
	return out, nil
}

// refSpaceSaving is the map-indexed summary with a min-scan per eviction.
type refSpaceSaving struct {
	blockBase
	k       int
	entries []ssEntry
	index   map[int64]int
}

func newRefSpaceSaving(k int) *refSpaceSaving {
	if k < 1 {
		k = 1
	}
	return &refSpaceSaving{k: k, index: map[int64]int{}}
}

func (s *refSpaceSaving) Kind() Kind   { return KindSpaceSaving }
func (s *refSpaceSaving) Name() string { return "ref-spacesaving" }

func (s *refSpaceSaving) Push(_, v int64) {
	s.items++
	s.observe(v)
}

func (s *refSpaceSaving) PushBatch(_ int64, vals []int64) {
	s.items += int64(len(vals))
	for _, v := range vals {
		s.observe(v)
	}
}

func (s *refSpaceSaving) observe(v int64) {
	if i, ok := s.index[v]; ok {
		s.entries[i].count++
		return
	}
	if len(s.entries) < s.k {
		s.insertRaw(v, 1, 0)
		return
	}
	min := 0
	for i := 1; i < len(s.entries); i++ {
		e, m := &s.entries[i], &s.entries[min]
		if e.count < m.count || (e.count == m.count && e.val > m.val) {
			min = i
		}
	}
	minCount := s.entries[min].count
	delete(s.index, s.entries[min].val)
	s.entries[min] = ssEntry{val: v, count: minCount + 1, err: minCount}
	s.index[v] = min
}

func (s *refSpaceSaving) insertRaw(v, count, errBound int64) {
	s.index[v] = len(s.entries)
	s.entries = append(s.entries, ssEntry{val: v, count: count, err: errBound})
}

func (s *refSpaceSaving) top() []ssEntry {
	out := append([]ssEntry(nil), s.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return out[i].val < out[j].val
	})
	return out
}

func (s *refSpaceSaving) minCount() int64 {
	if len(s.entries) < s.k {
		return 0
	}
	min := s.entries[0].count
	for _, e := range s.entries {
		if e.count < min {
			min = e.count
		}
	}
	return min
}

func (s *refSpaceSaving) Merge(other StatBlock) error {
	o := other.(*refSpaceSaving)
	minS, minO := s.minCount(), o.minCount()
	for i := range s.entries {
		if _, shared := o.index[s.entries[i].val]; !shared {
			s.entries[i].count += minO
			s.entries[i].err += minO
		}
	}
	for _, oe := range o.entries {
		if i, ok := s.index[oe.val]; ok {
			s.entries[i].count += oe.count
			s.entries[i].err += oe.err
		} else {
			s.insertRaw(oe.val, oe.count+minS, oe.err+minS)
		}
	}
	if len(s.entries) > s.k {
		all := s.top()
		s.entries = s.entries[:0]
		clear(s.index)
		for _, e := range all[:s.k] {
			s.insertRaw(e.val, e.count, e.err)
		}
	}
	s.absorb(&o.blockBase)
	return nil
}

func (s *refSpaceSaving) MarshalBinary() ([]byte, error) {
	top := s.top()
	out := appendHeader(nil, KindSpaceSaving, s.degraded, s.items)
	out = binary.LittleEndian.AppendUint32(out, uint32(s.k))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(top)))
	for _, e := range top {
		out = binary.LittleEndian.AppendUint64(out, uint64(e.val))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.count))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.err))
	}
	return out, nil
}

// refWindow is the heap-only sliding window.
type refWindow struct {
	blockBase
	w int
	h posHeap
}

func newRefWindow(w int) *refWindow {
	if w < 0 {
		w = 0
	}
	return &refWindow{w: w}
}

func (w *refWindow) Kind() Kind   { return KindWindow }
func (w *refWindow) Name() string { return "ref-window" }

func (w *refWindow) Push(pos, v int64) {
	w.items++
	if w.w > 0 {
		w.push1(pos, v)
	}
}

func (w *refWindow) PushBatch(pos int64, vals []int64) {
	for i, v := range vals {
		w.Push(pos+int64(i), v)
	}
}

func (w *refWindow) push1(pos, v int64) {
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

func (w *refWindow) Merge(other StatBlock) error {
	o := other.(*refWindow)
	if w.w > 0 {
		for _, e := range o.h {
			w.push1(e.pos, e.val)
		}
	}
	w.absorb(&o.blockBase)
	return nil
}

func (w *refWindow) MarshalBinary() ([]byte, error) {
	es := append([]winEntry(nil), w.h...)
	sortEntries(es)
	out := appendHeader(nil, KindWindow, w.degraded, w.items)
	out = binary.LittleEndian.AppendUint32(out, uint32(w.w))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(es)))
	for _, e := range es {
		out = binary.LittleEndian.AppendUint64(out, uint64(e.pos))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.val))
	}
	return out, nil
}

// refDecode rebuilds a reference block from a v1 encoding the production
// Decode accepted, with the reference's own decode rules: a sparse HLL
// payload assigns entries in order (a duplicate index keeps the later one)
// and never promotes, and a window re-heaps its ascending entries.
func refDecode(t *testing.T, raw []byte) StatBlock {
	t.Helper()
	d := &decoder{buf: raw[headerSize:]}
	var b StatBlock
	switch Kind(raw[3]) {
	case KindHLL:
		h := newRefHLL(int(d.u8()))
		if d.u8() == 1 {
			h.sparse = nil
			h.dense = append([]uint8(nil), d.bytes(int(d.u32()))...)
		} else {
			for n := d.u32(); n > 0; n-- {
				idx := d.u32()
				h.sparse[idx] = d.u8()
			}
		}
		b = h
	case KindSpaceSaving:
		s := newRefSpaceSaving(int(d.u32()))
		for n := d.u32(); n > 0; n-- {
			s.insertRaw(int64(d.u64()), int64(d.u64()), int64(d.u64()))
		}
		b = s
	case KindWindow:
		w := newRefWindow(int(d.u32()))
		for n := d.u32(); n > 0; n-- {
			w.h = append(w.h, winEntry{pos: int64(d.u64()), val: int64(d.u64())})
		}
		for i := len(w.h)/2 - 1; i >= 0; i-- {
			siftDown(w.h, i)
		}
		b = w
	}
	if d.err != nil || len(d.buf) != 0 {
		t.Fatalf("reference decode of %d bytes failed: %v", len(raw), d.err)
	}
	base := blockBase{items: int64(binary.LittleEndian.Uint64(raw[5:13])), degraded: raw[4]&sketchFlagDegraded != 0}
	switch blk := b.(type) {
	case *refHLL:
		blk.blockBase = base
	case *refSpaceSaving:
		blk.blockBase = base
	case *refWindow:
		blk.blockBase = base
	}
	return b
}

// --- differential harness ---

// refPair is one production block and its reference twin, always fed the
// same operations.
type refPair struct {
	got, want StatBlock
}

func (p refPair) pushBatch(pos int64, vals []int64) {
	p.got.PushBatch(pos, vals)
	p.want.PushBatch(pos, vals)
}

func (p refPair) push(pos, v int64) {
	p.got.Push(pos, v)
	p.want.Push(pos, v)
}

func (p refPair) merge(t *testing.T, o refPair) {
	t.Helper()
	if err := p.got.Merge(o.got); err != nil {
		t.Fatal(err)
	}
	if err := p.want.Merge(o.want); err != nil {
		t.Fatal(err)
	}
}

func (p refPair) markDegraded() {
	p.got.MarkDegraded()
	p.want.MarkDegraded()
}

// check asserts the two blocks hold the same state.
func (p refPair) check(t *testing.T, what string) {
	t.Helper()
	got, _ := p.got.MarshalBinary()
	want, _ := p.want.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %s encodes %d bytes unlike the reference's %d (first diff at byte %d)",
			what, p.got.Name(), len(got), len(want), firstDiff(got, want))
	}
	if p.got.Items() != p.want.Items() || p.got.Degraded() != p.want.Degraded() {
		t.Fatalf("%s: %s items/degraded = %d/%v, reference %d/%v", what, p.got.Name(),
			p.got.Items(), p.got.Degraded(), p.want.Items(), p.want.Degraded())
	}
	if h, ok := p.got.(*HLL); ok {
		ref := p.want.(*refHLL)
		if h.Sparse() != (ref.dense == nil) {
			t.Fatalf("%s: hll sparse = %v, reference %v", what, h.Sparse(), ref.dense == nil)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// refGeometry is one random block configuration.
type refGeometry struct {
	p, k, w int
}

func (g refGeometry) String() string { return fmt.Sprintf("p=%d k=%d W=%d", g.p, g.k, g.w) }

func randomGeometry(rng *rand.Rand) refGeometry {
	ws := []int{0, 1, 2, 3, 127, 128, 129, 1024, 2048}
	w := rng.Intn(2049)
	if rng.Intn(2) == 0 {
		w = ws[rng.Intn(len(ws))]
	}
	return refGeometry{p: 4 + rng.Intn(9), k: 1 + rng.Intn(64), w: w}
}

// freshPairs builds the three blocks of g, the production side either cold
// or out of the block pools.
func freshPairs(g refGeometry, pooled bool) []refPair {
	if pooled {
		return []refPair{
			{pooledHLL(g.p), newRefHLL(g.p)},
			{pooledSpaceSaving(g.k), newRefSpaceSaving(g.k)},
			{pooledWindow(g.w), newRefWindow(g.w)},
		}
	}
	return []refPair{
		{NewHLL(g.p), newRefHLL(g.p)},
		{NewSpaceSaving(g.k), newRefSpaceSaving(g.k)},
		{NewWindow(g.w), newRefWindow(g.w)},
	}
}

// refStream draws n values of one of the stream shapes the blocks meet.
func refStream(rng *rand.Rand, shape string, n int) []int64 {
	vals := make([]int64, n)
	switch shape {
	case "uniform50":
		for i := range vals {
			vals[i] = 1 + rng.Int63n(50)
		}
	case "distinct":
		for i := range vals {
			vals[i] = rng.Int63n(200_000)
		}
	case "zipf":
		z := rand.NewZipf(rng, 1.1, 1, 1<<20)
		for i := range vals {
			vals[i] = int64(z.Uint64())
		}
	}
	return vals
}

var refShapes = []string{"uniform50", "distinct", "zipf"}

const refPage = 128 // values per page, as on a lineitem page

// feedPage pushes one page to a lane's pairs, split into random sub-batches
// (single-value Push included) so ring wrap-around lands everywhere.
func feedPage(rng *rand.Rand, lane []refPair, pos int64, vals []int64) {
	for len(vals) > 0 {
		n := len(vals)
		switch rng.Intn(4) {
		case 0:
			for _, p := range lane {
				p.push(pos, vals[0])
			}
			n = 1
		case 1:
			n = 1 + rng.Intn(n)
			fallthrough
		default:
			for _, p := range lane {
				p.pushBatch(pos, vals[:n])
			}
		}
		vals, pos = vals[n:], pos+int64(n)
	}
}

// dealPages hands a stream's pages to nLanes lanes, each lane receiving its
// pages in order, shuffled, or — "replayed" — with lane 0 retiring midway
// and the rest of its share replayed late by the other lanes, after their
// own. feed sees every page once.
func dealPages(rng *rand.Rand, vals []int64, nLanes int, order string, feed func(lane int, pos int64, page []int64)) {
	pages := (len(vals) + refPage - 1) / refPage
	deal := make([][]int, nLanes)
	for pg := 0; pg < pages; pg++ {
		l := rng.Intn(nLanes)
		deal[l] = append(deal[l], pg)
	}
	if order == "replayed" && nLanes > 1 {
		cut := len(deal[0]) / 2
		for _, pg := range deal[0][cut:] {
			l := 1 + rng.Intn(nLanes-1)
			deal[l] = append(deal[l], pg)
		}
		deal[0] = deal[0][:cut]
	}
	for l := range deal {
		if order == "shuffled" {
			rng.Shuffle(len(deal[l]), func(i, j int) { deal[l][i], deal[l][j] = deal[l][j], deal[l][i] })
		}
		for _, pg := range deal[l] {
			end := min((pg+1)*refPage, len(vals))
			feed(l, int64(pg*refPage), vals[pg*refPage:end])
		}
	}
}

// mergeTree folds lanes into one block in a random pairwise order; two calls
// with equally seeded generators build the same tree.
func mergeTree(t *testing.T, rng *rand.Rand, lanes []StatBlock) StatBlock {
	t.Helper()
	for len(lanes) > 1 {
		i, j := rng.Intn(len(lanes)), rng.Intn(len(lanes)-1)
		if j >= i {
			j++
		}
		if err := lanes[i].Merge(lanes[j]); err != nil {
			t.Fatal(err)
		}
		lanes[j] = lanes[len(lanes)-1]
		lanes = lanes[:len(lanes)-1]
	}
	return lanes[0]
}

var refOrders = []string{"ordered", "shuffled", "replayed"}

// TestBlocksMatchReference drives randomized cases through production and
// reference blocks side by side: three stream shapes, random geometry, pages
// dealt to 1–16 lanes in each order dealPages knows, random degradation, a
// random merge tree, and finally a decode → push → merge round.
func TestBlocksMatchReference(t *testing.T) {
	cases := 240
	if testing.Short() {
		cases = 60
	}
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c) + 1))
		g := randomGeometry(rng)
		shape := refShapes[c%len(refShapes)]
		order := refOrders[c/len(refShapes)%len(refOrders)]
		what := fmt.Sprintf("case %d (%s, %s, %s)", c, shape, order, g)

		vals := refStream(rng, shape, rng.Intn(24*refPage))
		lanes := make([][]refPair, 1+rng.Intn(16))
		for i := range lanes {
			lanes[i] = freshPairs(g, c%2 == 1)
		}
		dealPages(rng, vals, len(lanes), order, func(l int, pos int64, page []int64) {
			feedPage(rng, lanes[l], pos, page)
		})
		for _, lane := range lanes {
			if rng.Intn(8) == 0 {
				lane[rng.Intn(len(lane))].markDegraded()
			}
			for _, p := range lane {
				p.check(t, what+" lane")
			}
		}

		treeSeed := rng.Int63()
		merged := make([]refPair, len(lanes[0]))
		for b := range merged {
			gots, wants := make([]StatBlock, len(lanes)), make([]StatBlock, len(lanes))
			for l, lane := range lanes {
				gots[l], wants[l] = lane[b].got, lane[b].want
			}
			merged[b] = refPair{
				mergeTree(t, rand.New(rand.NewSource(treeSeed)), gots),
				mergeTree(t, rand.New(rand.NewSource(treeSeed)), wants),
			}
			merged[b].check(t, what+" merged")
		}

		// Decode both sides from the agreed bytes, keep streaming (sometimes
		// at positions before everything seen so far), then merge in a block
		// that saw later ones.
		end := int64(len(vals))
		more := refStream(rng, shape, rng.Intn(6*refPage))
		start := end
		if rng.Intn(3) == 0 {
			start = -int64(len(more)) - 1 - rng.Int63n(refPage)
		}
		extra := freshPairs(g, false)
		feedPage(rng, extra, end+int64(len(more))+1, refStream(rng, shape, rng.Intn(2*refPage)))
		for b, p := range merged {
			raw, _ := p.got.MarshalBinary()
			dec, err := Decode(raw)
			if err != nil {
				t.Fatalf("%s: decode: %v", what, err)
			}
			q := refPair{dec, refDecode(t, raw)}
			q.check(t, what+" decoded")
			feedPage(rng, []refPair{q}, start, more)
			q.check(t, what+" decoded+pushed")
			q.merge(t, extra[b])
			q.check(t, what+" decoded+merged")
			releaseBlock(p.got)
		}
	}
}

// TestSpaceSavingEvictionMatchesReference hammers the eviction rule alone:
// long streams with heavy tie churn at small k, where "minimum count, ties
// toward the largest value" decides nearly every push.
func TestSpaceSavingEvictionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(24)
		p := refPair{NewSpaceSaving(k), newRefSpaceSaving(k)}
		domain := int64(k + 1 + rng.Intn(4*k))
		for i := 0; i < 3000; i++ {
			v := rng.Int63n(domain)
			if rng.Intn(3) == 0 {
				v = -v // negative values order ties too
			}
			p.push(int64(i), v)
		}
		p.check(t, fmt.Sprintf("seed %d k=%d domain=%d", seed, k, domain))
	}
}

// TestPooledChainMatchesReference: chains built out of the pools — after
// releases of other geometries, degraded blocks and dense HLLs — must match
// fresh reference blocks exactly.
func TestPooledChainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	geoms := []refGeometry{{10, 16, 64}, {12, 16, 1024}, {4, 3, 5}, randomGeometry(rng)}
	for round := 0; round < 24; round++ {
		g := geoms[rng.Intn(len(geoms))]
		if g.w == 0 {
			g.w = 1
		}
		c := NewChain(ChainSpec{NDVPrecision: g.p, HeavyK: g.k, WindowW: g.w})
		refs := []StatBlock{newRefHLL(g.p), newRefSpaceSaving(g.k), newRefWindow(g.w)}
		vals := refStream(rng, refShapes[round%len(refShapes)], rng.Intn(40*refPage))
		for off := 0; off < len(vals); off += refPage {
			page := vals[off:min(off+refPage, len(vals))]
			c.SetPos(int64(off))
			c.PushAll(page)
			for _, r := range refs {
				r.PushBatch(int64(off), page)
			}
		}
		if rng.Intn(4) == 0 {
			c.MarkDegraded()
			for _, r := range refs {
				r.MarkDegraded()
			}
		}
		for i, b := range c.Blocks() {
			refPair{b, refs[i]}.check(t, fmt.Sprintf("round %d (%s)", round, g))
		}
		c.Release()
	}
}

// TestHLLOversizeSparseDecodeMatchesReference: a v1 sparse payload may list
// more than m/8 registers (and repeat an index). Such a sketch decodes as
// sparse and stays sparse until its next register update — an empty merge or
// an empty batch is no update — and a repeated index keeps its later rank.
func TestHLLOversizeSparseDecodeMatchesReference(t *testing.T) {
	const p = 6 // m = 64, sparse limit 8
	raw := appendHeader(nil, KindHLL, false, 40)
	raw = append(raw, p, 0)
	raw = binary.LittleEndian.AppendUint32(raw, 21)
	for i := uint32(0); i < 20; i++ {
		raw = binary.LittleEndian.AppendUint32(raw, i*3)
		raw = append(raw, uint8(1+i%5))
	}
	raw = binary.LittleEndian.AppendUint32(raw, 3) // index 3 again, lower rank than its first entry
	raw = append(raw, 1)

	for _, step := range []string{"merge-empty", "empty-batch", "push", "merge-sparse", "merge-dense"} {
		dec, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		q := refPair{dec, refDecode(t, raw)}
		q.check(t, "decoded")
		switch step {
		case "merge-empty":
			q.merge(t, refPair{NewHLL(p), newRefHLL(p)})
		case "empty-batch":
			q.pushBatch(0, nil)
		case "push":
			q.push(0, 12345)
		case "merge-sparse", "merge-dense":
			o := refPair{NewHLL(p), newRefHLL(p)}
			n := 1
			if step == "merge-dense" {
				n = 500
			}
			for i := 0; i < n; i++ {
				o.push(int64(i), int64(i)*7919)
			}
			q.merge(t, o)
		}
		q.check(t, step)
	}
}

// TestSSIndexMatchesMap churns the open-addressed index at its highest load
// (half full, the most a merge reaches) against a Go map, so probe runs
// wrap past the table's end and backward-shift deletes cross it. An index
// presized for that load never grows; one started empty grows on the way
// and ends at the same size.
func TestSSIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 3, 16} {
		for _, start := range []int{2 * k, 0} {
			x := newSSIndex(start)
			full := len(newSSIndex(2*k).buckets) / 2
			want := map[int64]int32{}
			for op := 0; op < 20_000; op++ {
				v := rng.Int63n(int64(8 * k))
				_, tracked := want[v]
				switch {
				case tracked && rng.Intn(2) == 0:
					x.remove(v)
					delete(want, v)
				case !tracked && len(want) < full:
					slot := int32(rng.Intn(1 << 20))
					x.insert(v, slot)
					want[v] = slot
				}
				for u := int64(0); u < int64(8*k); u++ {
					slot, ok := want[u]
					if !ok {
						slot = -1
					}
					if got := x.find(u); got != slot {
						t.Fatalf("k=%d start=%d op %d: find(%d) = %d, want %d", k, start, op, u, got, slot)
					}
				}
			}
			if len(x.buckets) != 2*full {
				t.Errorf("k=%d start=%d: %d buckets after churn, want %d", k, start, len(x.buckets), 2*full)
			}
		}
	}
}

// TestSpaceSavingDecodeSizesFromPayload: the decoder sizes a summary's
// arena and index from the counters a payload carries, not from the k it
// claims, so a header-only payload claiming the largest k cannot make it
// allocate megabytes. The decoded summary still fills and evicts like the
// one the reference decodes.
func TestSpaceSavingDecodeSizesFromPayload(t *testing.T) {
	const k = 1 << 20
	raw := appendHeader(nil, KindSpaceSaving, false, 0)
	raw = binary.LittleEndian.AppendUint32(raw, k)
	raw = binary.LittleEndian.AppendUint32(raw, 0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dec, err := Decode(raw)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("decoding a header-only k=%d payload allocated %d bytes, want at most 64 KiB", k, got)
	}

	small := appendHeader(nil, KindSpaceSaving, false, 0)
	small = binary.LittleEndian.AppendUint32(small, 4)
	small = binary.LittleEndian.AppendUint32(small, 0)
	for _, raw := range [][]byte{raw, small} {
		dec, err = Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		q := refPair{dec, refDecode(t, raw)}
		rng := rand.New(rand.NewSource(int64(len(raw))))
		q.pushBatch(0, refStream(rng, "zipf", 4000))
		q.check(t, "decoded then pushed")
	}
}
