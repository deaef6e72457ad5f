package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary serialisation for catalog persistence and the STATS wire, in the
// style of hist/serialize.go. Version 1 is a compact little-endian layout:
//
//	magic   uint16 = 0x4B53 ("SK")
//	version uint8  = 0x01
//	kind    uint8  (Kind)
//	flags   uint8  (bit 0: Degraded)
//	items   uint64
//	payload, per kind:
//	  hll:          precision u8, mode u8 (0 sparse / 1 dense);
//	                sparse: n u32, then n × (idx u32, rank u8), idx ascending
//	                dense:  m u32, then m register bytes
//	  spacesaving:  k u32, n u32, then n × (value, count, err) int64
//	                triples, count descending then value ascending
//	  window:       w u32, n u32, then n × (pos, value) int64 pairs,
//	                pos ascending
//
// Every repeated section is emitted in a canonical order, so two blocks with
// equal state always encode to identical bytes — the property the
// parallel ≡ serial tests compare on. Future layout changes bump the version
// byte; decoders keep reading every older version (the same forward-decode
// discipline as the histogram encoding, pinned by golden files).

const (
	sketchMagic    uint16 = 0x4B53
	sketchVersion1 byte   = 0x01

	sketchFlagDegraded byte = 1 << 0
)

// headerSize is the fixed prefix before the kind payload.
const headerSize = 2 + 1 + 1 + 1 + 8

// ErrCorruptSketch reports an undecodable sketch byte stream.
var ErrCorruptSketch = errors.New("sketch: corrupt serialized sketch")

func appendHeader(out []byte, kind Kind, degraded bool, items int64) []byte {
	out = binary.LittleEndian.AppendUint16(out, sketchMagic)
	out = append(out, sketchVersion1, byte(kind))
	var flags byte
	if degraded {
		flags |= sketchFlagDegraded
	}
	out = append(out, flags)
	return binary.LittleEndian.AppendUint64(out, uint64(items))
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *HLL) MarshalBinary() ([]byte, error) {
	out := appendHeader(make([]byte, 0, headerSize+2+4+int(h.m)), KindHLL, h.degraded, h.items)
	out = append(out, h.p)
	if h.dense {
		out = append(out, 1)
		out = binary.LittleEndian.AppendUint32(out, h.m)
		out = append(out, h.regs...)
		return out, nil
	}
	out = append(out, 0)
	out = binary.LittleEndian.AppendUint32(out, h.touched)
	for idx, rank := range h.regs {
		if rank != 0 {
			out = binary.LittleEndian.AppendUint32(out, uint32(idx))
			out = append(out, rank)
		}
	}
	return out, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *SpaceSaving) MarshalBinary() ([]byte, error) {
	top := s.Top(0)
	out := appendHeader(make([]byte, 0, headerSize+8+24*len(top)), KindSpaceSaving, s.degraded, s.items)
	out = binary.LittleEndian.AppendUint32(out, uint32(s.k))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(top)))
	for _, hh := range top {
		out = binary.LittleEndian.AppendUint64(out, uint64(hh.Value))
		out = binary.LittleEndian.AppendUint64(out, uint64(hh.Count))
		out = binary.LittleEndian.AppendUint64(out, uint64(hh.Err))
	}
	return out, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (w *Window) MarshalBinary() ([]byte, error) {
	out := appendHeader(make([]byte, 0, headerSize+8+16*len(w.h)), KindWindow, w.degraded, w.items)
	out = binary.LittleEndian.AppendUint32(out, uint32(w.w))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(w.h)))
	a, b := w.ordered()
	for _, run := range [2][]winEntry{a, b} {
		for _, e := range run {
			out = binary.LittleEndian.AppendUint64(out, uint64(e.pos))
			out = binary.LittleEndian.AppendUint64(out, uint64(e.val))
		}
	}
	return out, nil
}

// decoder is a bounds-checked little-endian cursor.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u8() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail("truncated u8")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || len(d.buf) < n {
		d.fail("truncated bytes")
		return nil
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorruptSketch, msg)
	}
}

// Decode parses one serialized sketch. It accepts every published version
// (currently only v1); unknown kinds and versions are errors, not guesses.
func Decode(buf []byte) (StatBlock, error) {
	d := &decoder{buf: buf}
	magicBytes := d.bytes(2)
	if d.err != nil {
		return nil, d.err
	}
	if magic := binary.LittleEndian.Uint16(magicBytes); magic != sketchMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorruptSketch, magic)
	}
	version := d.u8()
	kind := Kind(d.u8())
	flags := d.u8()
	items := int64(d.u64())
	if d.err != nil {
		return nil, d.err
	}
	if version != sketchVersion1 {
		return nil, fmt.Errorf("%w: unknown version %#x", ErrCorruptSketch, version)
	}
	if flags&^sketchFlagDegraded != 0 {
		return nil, fmt.Errorf("%w: bad flags %#x", ErrCorruptSketch, flags)
	}
	if items < 0 {
		return nil, fmt.Errorf("%w: negative item count", ErrCorruptSketch)
	}

	var b StatBlock
	switch kind {
	case KindHLL:
		b = decodeHLL(d)
	case KindSpaceSaving:
		b = decodeSpaceSaving(d)
	case KindWindow:
		b = decodeWindow(d)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorruptSketch, uint8(kind))
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSketch, len(d.buf))
	}
	switch blk := b.(type) {
	case *HLL:
		blk.items = items
		blk.degraded = flags&sketchFlagDegraded != 0
	case *SpaceSaving:
		blk.items = items
		blk.degraded = flags&sketchFlagDegraded != 0
	case *Window:
		blk.items = items
		blk.degraded = flags&sketchFlagDegraded != 0
	}
	return b, nil
}

func decodeHLL(d *decoder) *HLL {
	p := d.u8()
	mode := d.u8()
	if d.err != nil {
		return nil
	}
	if p < hllMinPrecision || p > hllMaxPrecision {
		d.fail(fmt.Sprintf("hll precision %d out of range", p))
		return nil
	}
	h := NewHLL(int(p))
	maxRank := uint8(64 - p + 1)
	switch mode {
	case 0:
		n := d.u32()
		if d.err == nil && n > h.m {
			d.fail("hll sparse count exceeds register file")
			return nil
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			idx := d.u32()
			rank := d.u8()
			if d.err != nil {
				break
			}
			if idx >= h.m || rank == 0 || rank > maxRank {
				d.fail("hll sparse entry out of range")
				break
			}
			// A repeated index keeps its later entry.
			if h.regs[idx] == 0 {
				h.touched++
			}
			h.regs[idx] = rank
		}
	case 1:
		m := d.u32()
		if d.err == nil && m != h.m {
			d.fail("hll dense register count mismatch")
			return nil
		}
		regs := d.bytes(int(m))
		if d.err != nil {
			return nil
		}
		copy(h.regs, regs)
		h.dense = true
		for _, r := range h.regs {
			if r > maxRank {
				d.fail("hll dense register out of range")
				break
			}
			if r != 0 {
				h.touched++
			}
		}
	default:
		d.fail("hll unknown representation")
	}
	return h
}

func decodeSpaceSaving(d *decoder) *SpaceSaving {
	k := d.u32()
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if k == 0 || k > 1<<20 || n > k {
		d.fail("spacesaving geometry out of range")
		return nil
	}
	s := newSpaceSaving(int(k), int(n))
	for i := uint32(0); i < n && d.err == nil; i++ {
		v := int64(d.u64())
		count := int64(d.u64())
		errBound := int64(d.u64())
		if d.err != nil {
			break
		}
		if count < 0 || errBound < 0 || errBound > count {
			d.fail("spacesaving counter out of range")
			break
		}
		if s.index.find(v) >= 0 {
			d.fail("spacesaving duplicate value")
			break
		}
		s.insertRaw(v, count, errBound)
	}
	return s
}

func decodeWindow(d *decoder) *Window {
	wcap := d.u32()
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if wcap > 1<<24 || n > wcap {
		d.fail("window geometry out of range")
		return nil
	}
	w := NewWindow(int(wcap))
	lastPos := int64(-1)
	for i := uint32(0); i < n && d.err == nil; i++ {
		pos := int64(d.u64())
		val := int64(d.u64())
		if d.err != nil {
			break
		}
		if pos <= lastPos {
			d.fail("window positions not strictly ascending")
			break
		}
		lastPos = pos
		// Ascending positions are the ring layout with its head at 0.
		w.h = append(w.h, winEntry{pos: pos, val: val})
	}
	return w
}

// DecodeBlocks parses a list of serialized sketches.
func DecodeBlocks(raws [][]byte) (Blocks, error) {
	if len(raws) == 0 {
		return nil, nil
	}
	out := make(Blocks, 0, len(raws))
	for i, raw := range raws {
		b, err := Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("sketch %d: %w", i, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// EncodeBlocks serialises a list of sketches.
func EncodeBlocks(bs Blocks) ([][]byte, error) {
	if len(bs) == 0 {
		return nil, nil
	}
	out := make([][]byte, 0, len(bs))
	for _, b := range bs {
		raw, err := b.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}
