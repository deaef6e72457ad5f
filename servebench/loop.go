package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"syscall"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/obs"
)

// opRec is one completed operation. The client-side timing fields are
// filled only in the traced run, whose sinks are timed.
type opRec struct {
	kind    opKind
	refresh bool
	ms      float64

	firstByteMS, tailMS, sinkMS float64
}

// clientLoop is one closed-loop client connection: it issues its next operation
// only after the previous one returned.
type clientLoop struct {
	idx   int
	c     *client.Client
	rng   *rand.Rand
	timed bool // time the sink's writes
	// col, when set, makes this a traced client: it receives each scan's
	// trace for assembly.
	col *collector

	recs  []opRec
	spans []span // the benchmark's op spans
}

func newClientLoop(addr string, idx int, seed uint64, timed bool, col *collector) (*clientLoop, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	if col != nil {
		c.EnableTracing()
	}
	return &clientLoop{
		idx: idx, c: c, timed: timed, col: col,
		rng: rand.New(rand.NewPCG(seed, uint64(idx))),
	}, nil
}

// drive runs every client loop until the deadline, in parallel, and returns when
// each has finished the operation in flight.
func drive(w *workload, r *rig, chk *checker, ds []*clientLoop, until time.Time) {
	bar := newBarrier(len(ds), until)
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *clientLoop) {
			defer wg.Done()
			// In lockstep the barrier decides when to stop, so that no
			// client is left waiting at it for a partner that has quit.
			for time.Now().Before(until) || w.lockstep {
				o := w.next(d.rng)
				if w.lockstep && !bar.wait() {
					return
				}
				d.exec(r, chk, o)
			}
		}(d)
	}
	wg.Wait()
}

// barrier releases its n parties together. The last to arrive decides
// whether the deadline has passed, so every party gets the same answer.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, here int
	gen     int
	until   time.Time
	stop    bool
}

func newBarrier(n int, until time.Time) *barrier {
	b := &barrier{n: n, until: until}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all parties arrive and reports whether to go on.
func (b *barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.here++; b.here == b.n {
		b.here = 0
		b.gen++
		b.stop = !time.Now().Before(b.until)
		b.cond.Broadcast()
		return !b.stop
	}
	for g := b.gen; g == b.gen; {
		b.cond.Wait()
	}
	return !b.stop
}

func (d *clientLoop) exec(r *rig, chk *checker, o op) {
	rec := opRec{kind: o.kind, refresh: o.kind == opScan && o.column != ""}
	start := time.Now()
	var sk *sink
	switch o.kind {
	case opScan:
		sk = &sink{delivered: &chk.delivered, timed: d.timed}
		chk.scan(d.c, o.t, o.column, sk)
	case opStats:
		chk.stats(d.c, o.t, o.column)
	case opRegister:
		rec.ms = ms(chk.register(r.srv, o.t))
	}
	end := time.Now()
	if o.kind != opRegister {
		rec.ms = ms(end.Sub(start))
	}
	if o.kind == opScan && d.timed && !sk.first.IsZero() {
		rec.firstByteMS = ms(sk.first.Sub(start))
		rec.tailMS = ms(end.Sub(sk.last))
		rec.sinkMS = ms(sk.inWrite)
	}
	if d.col != nil {
		id := nextID()
		d.spans = append(d.spans, span{
			Name: "bench." + kindNames[o.kind], ID: id, Op: id,
			Start: start.UnixNano(), End: end.UnixNano(), Pid: pidBench, Tid: d.idx + 1,
		})
		if o.kind == opScan {
			d.col.add(pendingTrace{traceID: d.c.LastTraceID(), op: id, tid: d.idx + 1})
		}
	}
	d.recs = append(d.recs, rec)
}

// pendingTrace is a traced scan whose spans are still to be joined.
type pendingTrace struct {
	traceID, op uint64
	tid         int
}

// collector joins traced scans' server and client spans to the benchmark's
// op spans on a goroutine of its own, so that the traced clients' loops do
// no more than an untraced client's besides sending the trace.
type collector struct {
	tr   *obs.Tracer
	in   chan pendingTrace
	done chan struct{}

	spans []span
	// serverSpans holds, per span name, the self time in ms the server
	// recorded for each traced scan.
	serverSpans map[string][]float64
	// handed and joined count the traces handed over and those whose
	// server spans were found.
	handed, joined int
}

// collectorQueue is deep enough that a traced client never waits to hand
// over a trace.
const collectorQueue = 1 << 14

func newCollector(tr *obs.Tracer) *collector {
	c := &collector{tr: tr, in: make(chan pendingTrace, collectorQueue), done: make(chan struct{}), serverSpans: map[string][]float64{}}
	go c.loop()
	return c
}

// add hands over a finished scan's trace; if the queue is full the trace
// is skipped rather than stall the client.
func (c *collector) add(p pendingTrace) {
	select {
	case c.in <- p:
	default:
	}
}

// close waits until every handed-over trace has been joined.
func (c *collector) close() {
	close(c.in)
	<-c.done
}

func (c *collector) loop() {
	defer close(c.done)
	for p := range c.in {
		c.handed++
		// The server publishes its trace just after flushing the scan's
		// last frame, and the client's span report follows the scan, so
		// either may still be on its way.
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
			if len(c.tr.TracesFor(p.traceID)) > 0 && len(c.tr.Reported(p.traceID)) > 0 {
				break
			}
		}
		at := c.tr.Assemble(p.traceID)
		if at == nil || at.ServerScans == 0 {
			continue
		}
		c.joined++
		spans := fromAssembled(at, p.op, p.tid)
		self := selfTimes(spans)
		for _, s := range spans {
			if s.Pid == pidServer {
				c.serverSpans[s.Name] = append(c.serverSpans[s.Name], float64(self[s.ID])/1e6)
			}
		}
		c.spans = append(c.spans, spans...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// sample is one reading of the run's counters.
type sample struct {
	t     time.Time
	bytes int64
	cpu   float64
}

const sampleEvery = 100 * time.Millisecond

// sampler reads the delivered-bytes and CPU counters every
// sampleEvery until stop is closed; the result channel yields the readings.
func sampler(chk *checker, stop <-chan struct{}) <-chan []sample {
	out := make(chan []sample, 1)
	take := func() sample {
		return sample{time.Now(), chk.delivered.Load(), cpuSeconds()}
	}
	go func() {
		ss := []sample{take()}
		tk := time.NewTicker(sampleEvery)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				out <- append(ss, take())
				return
			case <-tk.C:
				ss = append(ss, take())
			}
		}
	}()
	return out
}

// window is the counters' change over one stretch of the run.
type window struct {
	secs, bytes, cpu float64
}

// windows cuts the readings into consecutive windows of per samples. A
// trailing part shorter than half a window is dropped.
func windows(ss []sample, per int) []window {
	var out []window
	for i := 0; i+1 < len(ss); i += per {
		j := min(i+per, len(ss)-1)
		if j-i < (per+1)/2 && len(out) > 0 {
			break
		}
		a, b := ss[i], ss[j]
		out = append(out, window{
			secs:  b.t.Sub(a.t).Seconds(),
			bytes: float64(b.bytes - a.bytes),
			cpu:   b.cpu - a.cpu,
		})
	}
	return out
}
