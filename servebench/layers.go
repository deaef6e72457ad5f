package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"time"

	"streamhist/internal/bins"
	"streamhist/internal/core"
	"streamhist/internal/dbms"
	"streamhist/internal/durable"
	"streamhist/internal/hist"
	"streamhist/internal/page"
	"streamhist/internal/server"
	"streamhist/internal/sketch"
	"streamhist/internal/stream"
	"streamhist/internal/table"
)

// Shapes the server uses by default: pages per frame, and the Compressed
// histogram's T and B.
const (
	pagesPerFrame = 16
	topK, buckets = 64, 64
)

// replayer times one scan's layer calls, in served-path order, on the
// workload's own relation and column: encode, frame write and read,
// checksum, parse, bin, sketch chain, merge, finish and histogram, catalog
// put, journal put. It calls only the layers' public functions.
type replayer struct {
	rel    *table.Relation
	column string
	dm     *durable.Manager

	samples map[string][]float64
	spans   []span
	// coreCycles and sketchCycles are the last iteration's simulated cycle counts;
	// they must be identical on every iteration and every run.
	coreCycles, sketchCycles int64
	iters                    int
}

func (rp *replayer) add(name string, v float64) { rp.samples[name] = append(rp.samples[name], v) }

// step runs f as one replay span under root and returns its duration.
func (rp *replayer) step(op, root uint64, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	rp.spans = append(rp.spans, span{
		Name: name, ID: nextID(), Parent: root, Op: op,
		Start: start.UnixNano(), End: end.UnixNano(), Pid: pidReplay, Tid: 1,
	})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return end.Sub(start), nil
}

func gbps(b int64, d time.Duration) float64 { return float64(b) / d.Seconds() / 1e9 }
func mvals(n int, d time.Duration) float64  { return float64(n) / d.Seconds() / 1e6 }
func us(d time.Duration) float64            { return float64(d) / 1e3 }

// once runs one replay iteration.
func (rp *replayer) once() error {
	op := nextID()
	rootStart := time.Now()
	defer func() {
		rp.spans = append(rp.spans, span{
			Name: "replay", ID: op, Op: op,
			Start: rootStart.UnixNano(), End: time.Now().UnixNano(), Pid: pidReplay, Tid: 1,
		})
	}()
	var err error
	step := func(name string, f func() error) time.Duration {
		if err != nil {
			return 0
		}
		var d time.Duration
		d, err = rp.step(op, op, name, f)
		return d
	}

	// 1. encode
	var pages []*page.Page
	d := step("page.Encode", func() error { pages = page.Encode(rp.rel); return nil })
	rp.add("page.encode_ms", ms(d))
	total := int64(len(pages)) * page.Size

	// 2. frame write and read, with the server's checksummed page frames
	var payloads [][]byte
	for off := 0; off < len(pages); off += pagesPerFrame {
		end := min(off+pagesPerFrame, len(pages))
		p := make([]byte, 0, (end-off)*(page.Size+server.PageChecksumSize))
		for _, pg := range pages[off:end] {
			p = append(p, pg.Bytes()...)
		}
		for _, pg := range pages[off:end] {
			p = binary.LittleEndian.AppendUint32(p, pg.Checksum())
		}
		payloads = append(payloads, p)
	}
	var wire bytes.Buffer
	wire.Grow(int(total) + len(payloads)*(server.FrameHeaderSize+pagesPerFrame*server.PageChecksumSize))
	d = step("server.WriteFrame", func() error {
		for _, p := range payloads {
			if err := server.WriteFrame(&wire, server.FramePagesCk, p); err != nil {
				return err
			}
		}
		return nil
	})
	rp.add("server.writeframe_gbps", gbps(total, d))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frames := 0
	d = step("server.ReadFrame", func() error {
		rd := bytes.NewReader(wire.Bytes())
		for {
			f, err := server.ReadFrame(rd)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if f.Type != server.FramePagesCk {
				return fmt.Errorf("frame type %d", f.Type)
			}
			frames++
		}
	})
	runtime.ReadMemStats(&after)
	rp.add("server.readframe_gbps", gbps(total, d))
	if frames > 0 {
		rp.add("server.readframe_alloc_bytes_per_frame", float64(after.TotalAlloc-before.TotalAlloc)/float64(frames))
	}

	// 3. checksum
	d = step("page.Checksum", func() error {
		for _, pg := range pages {
			if !pg.Verify(page.Checksum(pg.Bytes())) {
				return fmt.Errorf("page checksum does not verify")
			}
		}
		return nil
	})
	rp.add("page.checksum_gbps", gbps(total, d))

	// 4. parse
	spec, serr := core.SpecFor(rp.rel.Schema, rp.column)
	if serr != nil {
		return serr
	}
	vals := make([]int64, 0, rp.rel.NumRows())
	d = step("core.Parser.Feed", func() error {
		p := core.NewParser(spec)
		for _, pg := range pages {
			var ferr error
			if vals, ferr = p.Feed(pg.Bytes(), vals); ferr != nil {
				return ferr
			}
		}
		if len(vals) != rp.rel.NumRows() {
			return fmt.Errorf("parsed %d values of %d", len(vals), rp.rel.NumRows())
		}
		return nil
	})
	if err != nil {
		return err
	}
	rp.add("core.parser_gbps", gbps(total, d))
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}

	// 5. bin
	newBinner := func() (*core.Binner, error) {
		pre, err := core.RangeFor(lo, hi, 1)
		if err != nil {
			return nil, err
		}
		return core.NewBinner(core.DefaultBinnerConfig(), pre), nil
	}
	var b *core.Binner
	d = step("core.NewBinner", func() (e error) { b, e = newBinner(); return })
	if err != nil {
		return err
	}
	rp.add("core.binner_new_us", us(d))
	d = step("core.Binner.PushAll", func() error { b.PushAll(vals); return nil })
	rp.add("core.binner_mvals_per_s", mvals(len(vals), d))

	// 6. sketch chain, and each block alone
	var ch *sketch.Chain
	d = step("sketch.Chain.PushAll", func() error {
		ch = sketch.NewChain(sketch.DefaultChainSpec())
		ch.PushAll(vals)
		return nil
	})
	rp.add("sketch.chain_mvals_per_s", mvals(len(vals), d))
	spec0 := sketch.DefaultChainSpec()
	for _, blk := range []struct {
		metric string
		b      sketch.StatBlock
	}{
		{"sketch.hll_mvals_per_s", sketch.NewHLL(spec0.NDVPrecision)},
		{"sketch.spacesaving_mvals_per_s", sketch.NewSpaceSaving(spec0.HeavyK)},
		{"sketch.window_mvals_per_s", sketch.NewWindow(spec0.WindowW)},
	} {
		d = step("sketch."+blk.b.Name()+".PushBatch", func() error { blk.b.PushBatch(0, vals); return nil })
		rp.add(blk.metric, mvals(len(vals), d))
	}

	// 7. merge: two lanes, each with half the values
	half := len(vals) / 2
	var b1, b2 *core.Binner
	if b1, err = newBinner(); err != nil {
		return err
	}
	if b2, err = newBinner(); err != nil {
		return err
	}
	b1.PushAll(vals[:half])
	b2.PushAll(vals[half:])
	c1, c2 := sketch.NewChain(spec0), sketch.NewChain(spec0)
	c1.PushAll(vals[:half])
	c2.SetPos(int64(half))
	c2.PushAll(vals[half:])
	d = step("core.Binner.Merge", func() error { return b1.Merge(b2) })
	rp.add("core.binner_merge_us", us(d))
	d = step("sketch.Chain.Merge", func() error { return c1.Merge(c2) })
	rp.add("sketch.merge_us", us(d))
	lane, _ := b2.Finish()
	acc := lane.Clone()
	d = step("bins.Vector.Merge", func() error { return acc.Merge(lane) })
	rp.add("bins.merge_us", us(d))

	// 8. finish and histogram
	var vec *bins.Vector
	var bst core.BinnerStats
	d = step("core.Binner.Finish", func() error { vec, bst = b.Finish(); return nil })
	rp.add("core.binner_finish_us", us(d))
	var cr core.ChainResult
	d = step("core.Scanner.Run", func() error {
		cr = core.NewScanner().Run(vec, core.NewCompressedBlock(topK, buckets, vec.Total()))
		return nil
	})
	rp.add("core.scanner_run_us", us(d))
	rp.coreCycles, rp.sketchCycles = bst.Cycles+cr.TotalCycles, ch.TotalCycles()
	var h *hist.Histogram
	d = step("hist.BuildCompressed", func() error { h = hist.BuildCompressed(vec, topK, buckets); return nil })
	rp.add("hist.build_compressed_us", us(d))
	raw, merr := h.MarshalBinary()
	if merr != nil {
		return merr
	}
	d = step("hist.UnmarshalBinary", func() error {
		var back hist.Histogram
		if err := back.UnmarshalBinary(raw); err != nil {
			return err
		}
		if !back.Equal(h) {
			return fmt.Errorf("histogram does not round-trip")
		}
		return nil
	})
	rp.add("hist.unmarshal_us", us(d))
	blobs, eerr := sketch.EncodeBlocks(ch.Blocks())
	if eerr != nil {
		return eerr
	}
	n := 0
	for _, bl := range blobs {
		n += len(bl)
	}
	rp.add("sketch.encoded_bytes", float64(n))

	// 9. catalog put
	cs := &dbms.ColumnStats{Histogram: h, Sketches: ch.Blocks(), NDistinct: int64(vec.Cardinality()), RowCount: int64(rp.rel.NumRows())}
	cat := dbms.NewCatalog()
	d = step("dbms.Catalog.Put", func() error { cat.Put(rp.rel.Name, rp.column, cs); return nil })
	rp.add("dbms.catalog_put_us", us(d))
	d = step("dbms.Catalog.Get", func() error {
		if cat.Get(rp.rel.Name, rp.column) == nil {
			return fmt.Errorf("catalog lost the entry")
		}
		return nil
	})
	rp.add("dbms.catalog_get_us", us(d))

	// 10. journal put, then make it durable
	d = step("durable.JournalPut", func() error { rp.dm.JournalPut(rp.rel.Name, rp.column, cs); return nil })
	rp.add("durable.journal_put_us", us(d))
	d = step("durable.Sync", rp.dm.Sync)
	rp.add("durable.sync_ms", ms(d))
	d = step("durable.Checkpoint", rp.dm.Checkpoint)
	rp.add("durable.checkpoint_ms", ms(d))

	// The no-wire ceiling: the in-process parallel data path over the same
	// relation, without and with the sketch chain.
	for _, v := range []struct {
		metric string
		spec   sketch.ChainSpec
	}{{"stream.parallel_gbps", sketch.ChainSpec{}}, {"stream.parallel_chain_gbps", spec0}} {
		pdp, perr := stream.NewParallelDataPath(rp.rel, rp.column, stream.GigabitEthernet, 0)
		if perr != nil {
			return perr
		}
		pdp.Sketch = v.spec
		var res *stream.ParallelScanResult
		d = step("stream.ParallelDataPath.Scan", func() (e error) { res, e = pdp.Scan(io.Discard, 0); return })
		if err != nil {
			return err
		}
		rp.add(v.metric, gbps(res.HostBytes, d))
	}
	rp.iters++
	return err
}
