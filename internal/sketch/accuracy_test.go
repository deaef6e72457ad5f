package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSpaceSavingGuaranteesAfterMergeTrees: the SpaceSaving guarantees —
// f ≤ Count ≤ f + N/k for every tracked value, and every value with
// f > N/k tracked — hold for the merged summary of 1–16 lanes fed in any
// page order, whatever the merge tree.
func TestSpaceSavingGuaranteesAfterMergeTrees(t *testing.T) {
	for c := 0; c < 90; c++ {
		rng := rand.New(rand.NewSource(int64(c) + 1000))
		k := []int{1, 2, 4, 8, 16, 32, 64}[rng.Intn(7)]
		shape := refShapes[c%len(refShapes)]
		order := refOrders[c/len(refShapes)%len(refOrders)]
		vals := refStream(rng, shape, 1+rng.Intn(80*refPage))
		truth := map[int64]int64{}
		for _, v := range vals {
			truth[v]++
		}
		lanes := make([]StatBlock, 1+rng.Intn(16))
		for i := range lanes {
			lanes[i] = NewSpaceSaving(k)
		}
		dealPages(rng, vals, len(lanes), order, func(l int, pos int64, page []int64) {
			lanes[l].PushBatch(pos, page)
		})
		s := mergeTree(t, rng, lanes).(*SpaceSaving)

		what := fmt.Sprintf("case %d (%s, %s, k=%d, %d lanes)", c, shape, order, k, len(lanes))
		n := int64(len(vals))
		if s.Items() != n {
			t.Fatalf("%s: items %d, want %d", what, s.Items(), n)
		}
		eps := n / int64(k)
		for _, hh := range s.Top(0) {
			f := truth[hh.Value]
			if hh.Count < f || hh.Count > f+eps {
				t.Fatalf("%s: value %d count %d outside [f, f+N/k] = [%d, %d]", what, hh.Value, hh.Count, f, f+eps)
			}
			if hh.Count-hh.Err > f {
				t.Fatalf("%s: value %d lower bound %d exceeds f=%d", what, hh.Value, hh.Count-hh.Err, f)
			}
		}
		for v, f := range truth {
			if f > eps {
				if _, ok := s.Estimate(v); !ok {
					t.Fatalf("%s: value %d with f=%d > N/k=%d untracked", what, v, f, eps)
				}
			}
		}
	}
}

// TestHLLRelativeErrorAfterMergeTrees: the merged estimate stays within
// three standard errors (3·1.04/√m) of the true distinct count across 20
// seeds per precision, with values repeated and dealt to 1–16 lanes.
func TestHLLRelativeErrorAfterMergeTrees(t *testing.T) {
	for _, p := range []int{10, 12, 14} {
		m := 1 << p
		bound := 3 * 1.04 / math.Sqrt(float64(m))
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(p)))
			// Below 2.5·m the linear-counting branch answers; above, the
			// harmonic mean does. Cover both.
			distinct := m / 2
			if seed%2 == 0 {
				distinct = 10 * m
			}
			base := rng.Int63()
			vals := make([]int64, 0, 2*distinct)
			for i := 0; i < distinct; i++ {
				v := base ^ int64(i)*0x5DEECE66D
				vals = append(vals, v)
				if rng.Intn(2) == 0 {
					vals = append(vals, v)
				}
			}
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			lanes := make([]StatBlock, 1+rng.Intn(16))
			for i := range lanes {
				lanes[i] = NewHLL(p)
			}
			dealPages(rng, vals, len(lanes), "shuffled", func(l int, pos int64, page []int64) {
				lanes[l].PushBatch(pos, page)
			})
			est := mergeTree(t, rng, lanes).(*HLL).Estimate()
			if rel := math.Abs(est-float64(distinct)) / float64(distinct); rel > bound {
				t.Errorf("p=%d seed %d: estimate %.0f of %d distinct is %.4f off, bound %.4f",
					p, seed, est, distinct, rel, bound)
			}
		}
	}
}
