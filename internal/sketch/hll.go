package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// HLL is a HyperLogLog distinct-count sketch over one flat 2^p-byte
// register file. Each value costs a hash, a shift and at most one register
// store — no map, no representation switch on the hot path (the
// line-rate layout of FPGA HLL engines). The classic sparse→dense promotion
// survives only as an encoding choice: while at most an eighth of the
// registers are touched and the sketch has never gone dense, MarshalBinary
// writes (index, rank) pairs; once the touched count outgrows m/8 the sticky
// dense flag flips and the full register file is written from then on.
// Register state is a pointwise maximum, so merge is commutative and
// associative and the merged sketch is byte-identical to the serial one
// under any lane sharding.
type HLL struct {
	blockBase
	p uint8  // precision: 2^p registers
	m uint32 // register count

	regs    []uint8 // the register file, always m bytes
	touched uint32  // registers holding a nonzero rank
	dense   bool    // sticky: the touched count once exceeded m/8
}

// hllMinPrecision..hllMaxPrecision bound the register file: 16 registers to
// 64 Ki registers.
const (
	hllMinPrecision = 4
	hllMaxPrecision = 16
)

// clampPrecision bounds p into [hllMinPrecision, hllMaxPrecision].
func clampPrecision(precision int) int {
	if precision < hllMinPrecision {
		precision = hllMinPrecision
	}
	if precision > hllMaxPrecision {
		precision = hllMaxPrecision
	}
	return precision
}

// NewHLL returns a sketch with 2^p registers, clamping p into [4, 16].
func NewHLL(precision int) *HLL {
	precision = clampPrecision(precision)
	return &HLL{
		p:    uint8(precision),
		m:    1 << precision,
		regs: make([]uint8, 1<<precision),
	}
}

// Kind implements StatBlock.
func (h *HLL) Kind() Kind { return KindHLL }

// Name implements StatBlock.
func (h *HLL) Name() string { return "hll" }

// Precision returns p (tests, rendering).
func (h *HLL) Precision() int { return int(h.p) }

// Sparse reports whether the sketch still encodes as (index, rank) pairs.
func (h *HLL) Sparse() bool { return !h.dense }

// hashValue mixes a column value into 64 well-distributed bits (the
// splitmix64 finaliser — the same mixer the fault injector's streams use).
func hashValue(v int64) uint64 {
	x := uint64(v) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Push implements StatBlock. The stream position is irrelevant to a
// distinct count; the signature is the chain's uniform contract.
func (h *HLL) Push(_, v int64) {
	h.items++
	h.observe(v)
	h.settle()
}

// PushBatch implements StatBlock. The position argument is irrelevant to a
// distinct count.
func (h *HLL) PushBatch(_ int64, vals []int64) {
	if len(vals) == 0 {
		return
	}
	h.items += int64(len(vals))
	for _, v := range vals {
		h.observe(v)
	}
	h.settle()
}

func (h *HLL) observe(v int64) {
	x := hashValue(v)
	idx := uint32(x >> (64 - h.p))
	rest := x << h.p
	var rank uint8
	if rest == 0 {
		rank = uint8(64 - h.p + 1)
	} else {
		rank = uint8(bits.LeadingZeros64(rest)) + 1
	}
	h.set(idx, rank)
}

// set raises one register to rank, counting registers that leave zero.
func (h *HLL) set(idx uint32, rank uint8) {
	if r := h.regs[idx]; rank > r {
		if r == 0 {
			h.touched++
		}
		h.regs[idx] = rank
	}
}

// settle flips the sticky dense flag once more than m/8 registers are
// touched. The touched count only grows, so checking once after a batch of
// register updates lands on the same flag as checking after each one.
func (h *HLL) settle() {
	if h.touched > h.m/8 {
		h.dense = true
	}
}

// register reads one register (tests).
func (h *HLL) register(idx uint32) uint8 { return h.regs[idx] }

// Estimate returns the distinct-count estimate: the standard bias-corrected
// harmonic mean, with linear counting below 2.5·m where raw HLL is biased.
func (h *HLL) Estimate() float64 {
	m := float64(h.m)
	var sum float64
	var zeros float64
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	raw := alpha(h.m) * m * m / sum
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/zeros)
	}
	return raw
}

// alpha is the HyperLogLog bias-correction constant for m registers.
func alpha(m uint32) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Merge implements StatBlock: registers take the pointwise maximum, which
// is exactly what a serial run over the union of the streams would hold.
func (h *HLL) Merge(other StatBlock) error {
	o, ok := other.(*HLL)
	if !ok {
		return fmt.Errorf("sketch: merging %s into hll", other.Kind())
	}
	if o.p != h.p {
		return fmt.Errorf("sketch: merging hll precision %d into %d", o.p, h.p)
	}
	for idx, rank := range o.regs {
		h.set(uint32(idx), rank)
	}
	// A dense side makes the merge dense; a sparse side settles the flag
	// only if it carried a register at all (an empty merge updates nothing).
	if o.dense {
		h.dense = true
	} else if o.touched > 0 {
		h.settle()
	}
	h.absorb(&o.blockBase)
	return nil
}
