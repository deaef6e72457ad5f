package core

import (
	"math/rand"
	"testing"

	"streamhist/internal/hw"
)

// refBinner is the binning pipeline model written the plain way — every
// value through Preprocessor.Address, the line split as a division, the bin
// found again from its value, three cache probes per item — as an oracle for
// Binner's streamlined per-value path. It covers the fault-free, unprofiled
// model only; those extras ride the same loop unchanged.
type refBinner struct {
	cfg                            BinnerConfig
	pre                            *Preprocessor
	cache                          *hw.Cache
	counts                         []int64
	pending                        map[int64]float64
	pipeTime, opTime, lastCommit   float64
	randomPeriod, burstPeriod, lat float64
	items, dropped, reads, writes  int64
	stall                          int64
}

func newRefBinner(cfg BinnerConfig, pre *Preprocessor) *refBinner {
	return &refBinner{
		cfg:          cfg,
		pre:          pre,
		cache:        hw.NewCache(cfg.CacheBytes, hw.LineBytes),
		counts:       make([]int64, pre.NumBins),
		pending:      map[int64]float64{},
		randomPeriod: float64(cfg.Clock.Hz) / float64(cfg.Mem.RandomOpsPerSec),
		burstPeriod:  float64(cfg.Clock.Hz) / float64(cfg.Mem.BurstOpsPerSec),
		lat:          float64(cfg.Mem.LatencyCycles),
	}
}

func (r *refBinner) push(value int64) {
	addr, ok := r.pre.Address(value)
	if !ok {
		r.dropped++
		return
	}
	r.items++
	r.pipeTime += r.cfg.PipelineCyclesPerItem
	if r.opTime-r.pipeTime > 512 {
		r.pipeTime = r.opTime - 512
	}
	line := addr / int64(r.cfg.Mem.BinsPerLine)
	var dataReady float64
	if r.cache.Lookup(line) {
		dataReady = r.pipeTime
	} else {
		readIssue := maxf(r.pipeTime, r.opTime)
		if c := r.pending[line]; c > readIssue {
			r.stall += int64(c - readIssue)
			r.pipeTime = c
			readIssue = c
		}
		r.opTime = maxf(r.opTime, readIssue) + r.randomPeriod
		dataReady = readIssue + r.lat
		r.reads++
	}
	v := r.pre.Min + addr*r.pre.Divisor
	r.counts[(v-r.pre.Min)/r.pre.Divisor]++
	period := r.randomPeriod
	if r.cache.Contains(line) {
		period = r.burstPeriod
	}
	r.opTime += period
	commit := maxf(r.opTime, dataReady) + r.lat
	r.writes++
	r.pending[line] = commit
	if commit > r.lastCommit {
		r.lastCommit = commit
	}
	r.cache.Insert(line)
}

func TestBinnerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	streams := []struct {
		name string
		gen  func(lo, hi int64) []int64
	}{
		{"uniform", func(lo, hi int64) []int64 {
			out := make([]int64, 20000)
			for i := range out {
				// Spill a little past both ends so drops are exercised.
				out[i] = lo - 5 + rng.Int63n(hi-lo+11)
			}
			return out
		}},
		{"skewed", func(lo, hi int64) []int64 {
			out := make([]int64, 20000)
			for i := range out {
				out[i] = lo + int64(float64(hi-lo)*rng.Float64()*rng.Float64()*rng.Float64())
			}
			return out
		}},
		{"stride", func(lo, hi int64) []int64 {
			out := make([]int64, 20000)
			for i := range out {
				out[i] = lo + int64(i*8)%(hi-lo+1)
			}
			return out
		}},
	}
	for _, div := range []int64{1, 3, 4} {
		for _, bpl := range []int{8, 6, 1} {
			for _, cacheBytes := range []int{0, 4 * hw.LineBytes, hw.DefaultCacheBytes} {
				for _, st := range streams {
					cfg := DefaultBinnerConfig()
					cfg.Mem.BinsPerLine = bpl
					cfg.CacheBytes = cacheBytes
					lo, hi := int64(-300), int64(5000)
					vals := st.gen(lo, hi)

					pre, err := RangeFor(lo, hi, div)
					if err != nil {
						t.Fatal(err)
					}
					b := NewBinner(cfg, pre)
					b.PushAll(vals[:7000])
					for _, v := range vals[7000:7100] {
						b.Push(v)
					}
					b.PushAll(vals[7100:])
					vec, got := b.Finish()

					refPre, _ := RangeFor(lo, hi, div)
					ref := newRefBinner(cfg, refPre)
					for _, v := range vals {
						ref.push(v)
					}
					want := BinnerStats{
						Items: ref.items, Dropped: ref.dropped,
						MemReadOps: ref.reads, MemWriteOps: ref.writes,
						CacheHits: ref.cache.Hits(), CacheMisses: ref.cache.Misses(),
						StallCycles: ref.stall, Cycles: int64(ref.lastCommit + 0.5),
					}
					if got != want {
						t.Fatalf("div=%d bpl=%d cache=%d %s: stats\n got %+v\nwant %+v", div, bpl, cacheBytes, st.name, got, want)
					}
					if pre.Dropped() != refPre.Dropped() {
						t.Fatalf("div=%d bpl=%d cache=%d %s: preprocessor dropped %d, want %d",
							div, bpl, cacheBytes, st.name, pre.Dropped(), refPre.Dropped())
					}
					for i, c := range ref.counts {
						if vec.Count(i) != c {
							t.Fatalf("div=%d bpl=%d cache=%d %s: bin %d = %d, want %d", div, bpl, cacheBytes, st.name, i, vec.Count(i), c)
						}
					}
					b.Release()
				}
			}
		}
	}
}
