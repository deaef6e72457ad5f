// Package bins implements the "in-memory sorted representation" at the heart
// of the paper (§4, "Histograms in linear time"): a dense array of
// occurrence counts indexed by value, filled by a bin-sort pass over the
// column. Because the array is indexed by value, reading it front to back
// yields the column's values in sorted order together with their exact
// frequencies — which is what the statistic blocks consume.
//
// The memory the vector occupies depends on the column's value range (its
// cardinality upper bound), not on the number of rows, matching the paper's
// linear-space argument.
package bins

import (
	"fmt"
)

// Vector is a dense bin array over the value range [Min, Min+len*Divisor).
// Bin i counts occurrences of values v with (v-Min)/Divisor == i.
//
// Divisor > 1 coarsens the mapping, assigning several consecutive values to
// one bin — the paper's example is second-granularity timestamps binned per
// day (§5.1.1).
type Vector struct {
	Min     int64
	Divisor int64

	counts []int64
	total  int64
}

// NewVector creates a zeroed vector covering [min, max] inclusive with the
// given divisor (use 1 for exact per-value bins).
func NewVector(min, max, divisor int64) *Vector {
	if divisor <= 0 {
		panic("bins: divisor must be positive")
	}
	if max < min {
		panic(fmt.Sprintf("bins: max %d < min %d", max, min))
	}
	n := (max-min)/divisor + 1
	return &Vector{Min: min, Divisor: divisor, counts: make([]int64, n)}
}

// FromCounts builds a vector directly from a per-bin count slice (bin i at
// value min+i*divisor). The slice is retained.
func FromCounts(min, divisor int64, counts []int64) *Vector {
	if divisor <= 0 {
		panic("bins: divisor must be positive")
	}
	v := &Vector{Min: min, Divisor: divisor, counts: counts}
	for _, c := range counts {
		v.total += c
	}
	return v
}

// NumBins returns the number of bins (the Δ of Table 2).
func (v *Vector) NumBins() int { return len(v.counts) }

// Total returns the total number of values added.
func (v *Vector) Total() int64 { return v.total }

// Index maps a value to its bin index, or -1 when out of range.
func (v *Vector) Index(value int64) int {
	if value < v.Min {
		return -1
	}
	i := (value - v.Min) / v.Divisor
	if i >= int64(len(v.counts)) {
		return -1
	}
	return int(i)
}

// Value returns the lowest value mapped to bin i.
func (v *Vector) Value(i int) int64 { return v.Min + int64(i)*v.Divisor }

// Add records one occurrence of value. It panics when the value is outside
// the configured range — the preprocessor is responsible for range setup.
func (v *Vector) Add(value int64) {
	i := v.Index(value)
	if i < 0 {
		panic(fmt.Sprintf("bins: value %d outside range [%d, %d]", value, v.Min, v.Min+int64(len(v.counts))*v.Divisor-1))
	}
	v.counts[i]++
	v.total++
}

// AddCount records count occurrences of value.
func (v *Vector) AddCount(value, count int64) {
	i := v.Index(value)
	if i < 0 {
		panic(fmt.Sprintf("bins: value %d outside range", value))
	}
	v.counts[i] += count
	v.total += count
}

// AddIndex adds count to bin i, which the caller has already mapped and
// range-checked (0 ≤ i < NumBins) — the binner's per-value path.
func (v *Vector) AddIndex(i int, count int64) {
	v.counts[i] += count
	v.total += count
}

// Count returns the count in bin i.
func (v *Vector) Count(i int) int64 { return v.counts[i] }

// CountValue returns the count of the bin containing value (0 when out of
// range).
func (v *Vector) CountValue(value int64) int64 {
	i := v.Index(value)
	if i < 0 {
		return 0
	}
	return v.counts[i]
}

// Counts exposes the underlying count slice (read-only by convention).
func (v *Vector) Counts() []int64 { return v.counts }

// Cardinality returns the number of non-empty bins.
func (v *Vector) Cardinality() int {
	n := 0
	for _, c := range v.counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	c := make([]int64, len(v.counts))
	copy(c, v.counts)
	return &Vector{Min: v.Min, Divisor: v.Divisor, counts: c, total: v.total}
}

// Reset zeroes all counts, keeping the range configuration. This mirrors the
// accelerator reusing a memory region for the next table.
func (v *Vector) Reset() {
	for i := range v.counts {
		v.counts[i] = 0
	}
	v.total = 0
}

// Merge adds other's counts into v. Both vectors must have identical range
// configuration. This implements the §7 (Future Work) scale-up path where
// replicated Binner modules produce partial counts in separate memories that
// are aggregated before histogram creation.
func (v *Vector) Merge(other *Vector) error {
	if v.Min != other.Min || v.Divisor != other.Divisor || len(v.counts) != len(other.counts) {
		return fmt.Errorf("bins: cannot merge vectors with different geometry (min %d/%d divisor %d/%d bins %d/%d)",
			v.Min, other.Min, v.Divisor, other.Divisor, len(v.counts), len(other.counts))
	}
	for i, c := range other.counts {
		v.counts[i] += c
		v.total += c
	}
	return nil
}

// MergeAll merges any number of identically configured vectors into a fresh
// vector — the software form of the adder tree that aggregates replicated
// Binner memories (§7). The inputs are not modified. At least one vector is
// required; it defines the geometry the rest must match.
func MergeAll(vs ...*Vector) (*Vector, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("bins: MergeAll needs at least one vector")
	}
	out := FromCounts(vs[0].Min, vs[0].Divisor, make([]int64, len(vs[0].counts)))
	for _, v := range vs {
		if err := out.Merge(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Build bin-sorts values into a fresh vector sized to their range; the
// software-reference equivalent of the Binner module.
func Build(values []int64, divisor int64) *Vector {
	if len(values) == 0 {
		return NewVector(0, 0, max64(divisor, 1))
	}
	lo, hi := values[0], values[0]
	for _, x := range values {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	v := NewVector(lo, hi, divisor)
	for _, x := range values {
		v.Add(x)
	}
	return v
}

// Bin couples a representative value with its count; the unit streamed from
// the Scanner into the statistic blocks.
type Bin struct {
	Value int64
	Count int64
}

// NonZero returns the non-empty bins in ascending value order.
func (v *Vector) NonZero() []Bin {
	out := make([]Bin, 0, 64)
	for i, c := range v.counts {
		if c > 0 {
			out = append(out, Bin{Value: v.Value(i), Count: c})
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
