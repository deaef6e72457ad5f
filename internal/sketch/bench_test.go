package sketch

import (
	"math/rand"
	"testing"
)

// BenchmarkBlockPushBatch measures each block of the default chain, and the
// chain itself, in steady state: one op is one 128-value batch (one lineitem
// page) at the next stream positions, so the window keeps sliding and the
// summaries keep evicting. Every case uses the default chain geometry
// except spacesaving-k256. Value shapes: uniform over 1..50 (l_quantity's
// domain), near-distinct over 200k, and Zipf.
func BenchmarkBlockPushBatch(b *testing.B) {
	spec := DefaultChainSpec()
	blocks := []struct {
		name string
		push func() func(pos int64, vals []int64)
	}{
		{"hll", func() func(int64, []int64) { return NewHLL(spec.NDVPrecision).PushBatch }},
		{"spacesaving", func() func(int64, []int64) { return NewSpaceSaving(spec.HeavyK).PushBatch }},
		// Past 32 minimum-count slots the candidate rebuild sorts with
		// slices.SortFunc instead of insertion sort; k=256 reaches that.
		{"spacesaving-k256", func() func(int64, []int64) { return NewSpaceSaving(256).PushBatch }},
		{"window", func() func(int64, []int64) { return NewWindow(spec.WindowW).PushBatch }},
		{"chain", func() func(int64, []int64) {
			c := NewChain(spec)
			return func(_ int64, vals []int64) { c.PushAll(vals) }
		}},
	}
	const pages = 512
	for _, blk := range blocks {
		for _, shape := range refShapes {
			vals := refStream(rand.New(rand.NewSource(1)), shape, pages*refPage)
			b.Run(blk.name+"/"+shape, func(b *testing.B) {
				push := blk.push()
				b.SetBytes(refPage * 8)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := i % pages * refPage
					push(int64(i)*refPage, vals[off:off+refPage])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/refPage, "ns/value")
			})
		}
	}
}

// BenchmarkWindowMergeEncode measures what a served refresh does with the
// window once the stream is over: merge two lanes' windows, each filled with
// alternate pages of the column, then encode the survivor (the catalog
// journals it under the catalog lock, and every STATS read and checkpoint
// encodes it again).
func BenchmarkWindowMergeEncode(b *testing.B) {
	const pages = 160 // a 20k-row lineitem
	w := DefaultChainSpec().WindowW
	vals := refStream(rand.New(rand.NewSource(1)), "uniform50", pages*refPage)
	lane := func(parity int) *Window {
		win := NewWindow(w)
		for pg := parity; pg < pages; pg += 2 {
			win.PushBatch(int64(pg*refPage), vals[pg*refPage:(pg+1)*refPage])
		}
		return win
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, o := lane(0), lane(1)
		b.StartTimer()
		if err := a.Merge(o); err != nil {
			b.Fatal(err)
		}
		if _, err := a.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
