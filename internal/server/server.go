package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/dbms"
	"streamhist/internal/durable"
	"streamhist/internal/faults"
	"streamhist/internal/hist"
	"streamhist/internal/hw"
	"streamhist/internal/hwprof"
	"streamhist/internal/obs"
	"streamhist/internal/page"
	"streamhist/internal/sketch"
	"streamhist/internal/table"
)

// ErrServerClosed is returned by Serve after a shutdown.
var ErrServerClosed = errors.New("server: closed")

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// DrainWorkers bounds how many scans may run a statistics side path at
	// once. When the pool is exhausted a scan still streams at full speed —
	// it just skips the side path (fail open, §4: the accelerator must
	// never slow the regular flow of data).
	DrainWorkers int
	// SideBufDepth is the per-lane side-channel depth in frames. A full
	// buffer applies backpressure to that scan, bounding memory instead of
	// dropping values, so a refreshed histogram is always complete.
	SideBufDepth int
	// ShardLanes is how many parallel Parser+Binner lanes each scan's side
	// path fans out to (the §7 replication design). Frames are distributed
	// round-robin across the lanes and the lanes' binner states are merged
	// before histogram creation. 0 means GOMAXPROCS.
	ShardLanes int
	// PagesPerFrame sets how many 8 KiB page images ride in one FramePages.
	PagesPerFrame int
	// IdleTimeout bounds the wait for the next request on a connection.
	IdleTimeout time.Duration
	// WriteTimeout bounds each write of at most 64 KiB on a connection, so
	// it measures lack of progress: a scan to a slow but live client renews
	// it with every write the client absorbs.
	WriteTimeout time.Duration
	// ShutdownGrace bounds the drain when Serve's context is cancelled.
	ShutdownGrace time.Duration
	// TopK and Buckets shape the Compressed histograms installed in the
	// catalog (T and B of the paper's evaluation setup).
	TopK, Buckets int
	// Binner overrides the accelerator simulation parameters.
	Binner core.BinnerConfig
	// Faults optionally wires the chaos harness into the serving path:
	// page corruption and truncation, connection resets, drain-pool
	// saturation, and bin-memory upsets all draw from this injector's
	// deterministic per-point streams. Nil (the default) disables every
	// injection; the fault-handling machinery itself always runs.
	Faults *faults.Injector
	// ScanDeadline bounds one scan's statistics side path. A side path
	// still running when the deadline fires is cancelled — the raw page
	// stream is never touched — and the scan reports Degraded instead of
	// installing a possibly stale histogram. Zero means no watchdog.
	ScanDeadline time.Duration
	// SideStallTimeout bounds how long the serving goroutine will wait on
	// a side-path lane that stopped accepting frames before retiring it.
	// Zero means 500ms.
	SideStallTimeout time.Duration
	// Obs is the observability bundle: metrics registry, scan tracer, and
	// structured logger. Nil gets a fresh obs.New() bundle (always-on
	// observability with a no-op logger); mount obs.Handler(srv.Obs(), ...)
	// to expose it over HTTP.
	Obs *obs.Obs
	// Sketch configures the daisy chain of statistic blocks each served
	// scan's side path runs beside the Binner, so every scan refreshes NDV,
	// heavy hitters, and a sliding-window aggregate along with the
	// histogram. The zero spec gets sketch.DefaultChainSpec(); set
	// SketchDisabled to turn the chain off entirely.
	Sketch sketch.ChainSpec
	// SketchDisabled turns the sketch chain off (the histogram side path is
	// unaffected).
	SketchDisabled bool
	// Durable attaches crash-safe persistence: the server adopts the
	// manager's recovered catalog (so statistics survive restarts), journals
	// every served scan's lifecycle at frame granularity, and matches resume
	// offsets against in-flight scans a dead process left behind. All
	// journal calls are asynchronous and nil-safe — a nil manager is the
	// ephemeral, byte-identical-to-before configuration.
	Durable *durable.Manager
}

func (c Config) withDefaults() Config {
	if c.DrainWorkers <= 0 {
		c.DrainWorkers = 8
	}
	if c.SideBufDepth <= 0 {
		c.SideBufDepth = 8
	}
	if c.ShardLanes <= 0 {
		c.ShardLanes = runtime.GOMAXPROCS(0)
	}
	if c.PagesPerFrame <= 0 {
		c.PagesPerFrame = 16
	}
	if c.PagesPerFrame*(page.Size+PageChecksumSize) > MaxPayload {
		c.PagesPerFrame = MaxPayload / (page.Size + PageChecksumSize)
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 5 * time.Second
	}
	if c.TopK <= 0 {
		c.TopK = 64
	}
	if c.Buckets <= 0 {
		c.Buckets = 64
	}
	if c.Binner.Clock.Hz == 0 {
		faultsOverride := c.Binner.Faults
		c.Binner = core.DefaultBinnerConfig()
		c.Binner.Faults = faultsOverride
	}
	if c.SideStallTimeout <= 0 {
		c.SideStallTimeout = 500 * time.Millisecond
	}
	if c.SketchDisabled {
		c.Sketch = sketch.ChainSpec{}
	} else if !c.Sketch.Enabled() {
		c.Sketch = sketch.DefaultChainSpec()
	}
	return c
}

// colMeta is the per-column scan metadata computed at registration: the
// ColumnSpec the Parser needs and the value range the Binner is sized for —
// the "host-provided metadata" the paper piggybacks on the read command.
type colMeta struct {
	spec     core.ColumnSpec
	min, max int64
	ok       bool // false for empty columns: no side path possible
}

// tableEntry is one registered relation plus its lazily encoded page images
// and their storage-authoritative checksums.
type tableEntry struct {
	rel  *table.Relation
	cols map[string]colMeta

	once  sync.Once
	pages []*page.Page
	sums  []uint32
}

func (e *tableEntry) encode() {
	e.once.Do(func() {
		e.pages = page.Encode(e.rel)
		// Checksums are taken here, at encode time, before the images can
		// travel anywhere: every later consumer verifies against what
		// storage actually held, not against a possibly corrupted relay.
		e.sums = make([]uint32, len(e.pages))
		for i, p := range e.pages {
			e.sums[i] = p.Checksum()
		}
	})
}

func (e *tableEntry) pageImages() []*page.Page {
	e.encode()
	return e.pages
}

func (e *tableEntry) pageSums() []uint32 {
	e.encode()
	return e.sums
}

// connState tracks whether a connection is mid-request, so a graceful
// shutdown can close idle connections immediately and let active scans end.
type connState struct {
	mu     sync.Mutex
	active bool
}

// Server is the histserved scan service: it registers relations, streams
// their raw page bytes to clients, and — as a side effect of every served
// scan — refreshes the statistics catalog through the accelerator model.
type Server struct {
	cfg     Config
	catalog *dbms.Catalog

	mu     sync.RWMutex
	tables map[string]*tableEntry

	drainSem chan struct{}
	bufPool  sync.Pool

	connMu     sync.Mutex
	listeners  map[net.Listener]struct{}
	conns      map[net.Conn]*connState
	inShutdown bool

	wg sync.WaitGroup

	// scanSeq numbers served scans so each gets its own deterministic
	// fault-injection fork; the same number keys the scan's trace and its
	// log records.
	scanSeq atomic.Int64

	obs     *obs.Obs
	metrics metrics
}

// New builds a Server with the given configuration and an empty catalog.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	catalog := dbms.NewCatalog()
	if cfg.Durable != nil {
		// Startup recovery already ran inside durable.Open; adopting its
		// catalog (journal attached) makes every future install durable.
		catalog = cfg.Durable.Catalog()
	}
	s := &Server{
		cfg:       cfg,
		obs:       cfg.Obs,
		catalog:   catalog,
		tables:    make(map[string]*tableEntry),
		drainSem:  make(chan struct{}, cfg.DrainWorkers),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]*connState),
	}
	s.metrics = newMetrics(cfg.Obs.Registry(), cfg.ShardLanes)
	if prof := cfg.Obs.Profiler(); prof != nil {
		// The self-check of the whole attribution scheme, as a scrapeable
		// gauge: the profiler's live cycle total must equal what the PR 2
		// critical-path arithmetic attributed across refreshed scans. Any
		// drift — a lost spike, a double flush, a retired lane charged —
		// reads as 0 on the next scrape.
		expected := s.metrics.hwprofAttributed
		cfg.Obs.Registry().GaugeFunc("streamhist_hwprof_consistency",
			"1 when the hardware profile's cycle total matches the scan arithmetic attributed so far; 0 on drift.",
			func() float64 {
				if prof.TotalCycles() == expected.Value() {
					return 1
				}
				return 0
			})
	}
	if inj := cfg.Faults; inj != nil {
		// One computed gauge per injection point, read from the injector's
		// fork-tree-wide aggregate at scrape time: every scan's and lane's
		// child injector reports into the same totals.
		for _, p := range faults.Points() {
			p := p
			cfg.Obs.Registry().GaugeFunc(
				fmt.Sprintf("streamhist_fault_injections{point=%q}", obs.LabelValue(string(p))),
				"Fault-injection hits per point across the whole fork tree.",
				func() float64 { return float64(inj.TotalHits(p)) })
		}
	}
	frameBytes := cfg.PagesPerFrame * page.Size
	s.bufPool.New = func() any {
		b := make([]byte, 0, frameBytes)
		return &b
	}
	return s
}

// Obs exposes the server's observability bundle so a command can mount the
// introspection handler (obs.Handler) or swap in a real logger.
func (s *Server) Obs() *obs.Obs { return s.obs }

// Catalog exposes the server's statistics dictionary, e.g. to share it with
// an embedding planner or to inspect it in tests.
func (s *Server) Catalog() *dbms.Catalog { return s.catalog }

// Register adds (or replaces) a relation. Replacing bumps the catalog
// version so previously gathered statistics read as stale until the next
// served scan refreshes them.
func (s *Server) Register(rel *table.Relation) error {
	if rel == nil || rel.Name == "" {
		return fmt.Errorf("server: relation must have a name")
	}
	if len(rel.Name) > maxNameLen {
		return fmt.Errorf("server: table name %q exceeds %d bytes", rel.Name, maxNameLen)
	}
	cols := make(map[string]colMeta, rel.Schema.NumColumns())
	for _, c := range rel.Schema.Columns {
		spec, err := core.SpecFor(rel.Schema, c.Name)
		if err != nil {
			return err
		}
		m := colMeta{spec: spec}
		if vals := rel.ColumnByName(c.Name); len(vals) > 0 {
			m.min, m.max, m.ok = vals[0], vals[0], true
			for _, v := range vals {
				if v < m.min {
					m.min = v
				}
				if v > m.max {
					m.max = v
				}
			}
		}
		cols[c.Name] = m
	}
	s.mu.Lock()
	_, replaced := s.tables[rel.Name]
	s.tables[rel.Name] = &tableEntry{rel: rel, cols: cols}
	s.mu.Unlock()
	if replaced {
		s.catalog.BumpVersion(rel.Name)
	}
	return nil
}

func (s *Server) lookup(name string) (*tableEntry, error) {
	s.mu.RLock()
	e := s.tables[name]
	s.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return e, nil
}

// Serve accepts connections on ln until ctx is cancelled, then drains
// gracefully (bounded by Config.ShutdownGrace) and returns ErrServerClosed.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if s.shuttingDown() {
		return ErrServerClosed
	}
	s.connMu.Lock()
	s.listeners[ln] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.listeners, ln)
		s.connMu.Unlock()
	}()

	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || s.shuttingDown() {
				sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
				defer cancel()
				if serr := s.Shutdown(sctx); serr != nil {
					return fmt.Errorf("%w: drain: %v", ErrServerClosed, serr)
				}
				return ErrServerClosed
			}
			return err
		}
		st := s.trackConn(conn)
		if st == nil {
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.handleConn(conn, st)
	}
}

// ServeConn serves one pre-established connection (e.g. one side of a
// net.Pipe) until the peer disconnects or the server shuts down. It blocks.
func (s *Server) ServeConn(conn net.Conn) {
	st := s.trackConn(conn)
	if st == nil {
		conn.Close()
		return
	}
	s.wg.Add(1)
	s.handleConn(conn, st)
}

func (s *Server) trackConn(conn net.Conn) *connState {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.inShutdown {
		return nil
	}
	st := &connState{}
	s.conns[conn] = st
	s.metrics.activeConns.Add(1)
	return st
}

func (s *Server) dropConn(conn net.Conn) {
	s.connMu.Lock()
	if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		s.metrics.activeConns.Add(-1)
	}
	s.connMu.Unlock()
}

func (s *Server) shuttingDown() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.inShutdown
}

// Shutdown stops accepting, lets in-flight requests finish, closes idle
// connections, and waits for every handler to exit. When ctx expires first,
// remaining connections are force-closed and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.connMu.Lock()
	s.inShutdown = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.connMu.Unlock()

	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		if s.closeIdleConns() == 0 {
			s.wg.Wait()
			return nil
		}
		select {
		case <-ctx.Done():
			s.closeAllConns()
			s.wg.Wait()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Close force-closes every listener and connection and waits for handlers.
func (s *Server) Close() error {
	s.connMu.Lock()
	s.inShutdown = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.connMu.Unlock()
	s.closeAllConns()
	s.wg.Wait()
	return nil
}

// closeIdleConns closes connections not currently serving a request and
// returns how many connections remain registered.
func (s *Server) closeIdleConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for conn, st := range s.conns {
		st.mu.Lock()
		idle := !st.active
		st.mu.Unlock()
		if idle {
			conn.Close()
		}
	}
	return len(s.conns)
}

func (s *Server) closeAllConns() {
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
}

// deadlineWriter is the per-connection write path: every write call it
// makes on the connection moves at most deadlineChunk bytes and re-arms the
// write deadline first, so the deadline bounds *lack of progress*, not total
// transfer time. A multi-frame scan to a slow but live client keeps
// extending its own deadline with every chunk the client absorbs; a dead
// client stops absorbing and trips the very next chunk. Control frames come
// through the connection's bufio writer, whose flushes Write splits; page
// frames go out through writeFrameVec. Either way progress is measured per
// ≤64 KiB write, below frame granularity.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
	// writev is set for connections that turn net.Buffers into one writev
	// call (TCP and Unix sockets).
	writev bool
	// grp backs the vector group in flight and vec is its header, which
	// net.Buffers.WriteTo consumes; both live here so a vectored write
	// allocates nothing.
	grp [][]byte
	vec net.Buffers
}

// deadlineChunk is the largest single write between deadline refreshes.
const deadlineChunk = 64 << 10

func newDeadlineWriter(conn net.Conn, timeout time.Duration) *deadlineWriter {
	w := &deadlineWriter{conn: conn, timeout: timeout}
	switch conn.(type) {
	case *net.TCPConn, *net.UnixConn:
		w.writev = true
	}
	return w
}

func (w *deadlineWriter) arm() {
	if w.timeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	var total int
	for len(p) > 0 {
		n := min(len(p), deadlineChunk)
		w.arm()
		wrote, err := w.conn.Write(p[:n])
		total += wrote
		if err != nil {
			return total, err
		}
		p = p[wrote:]
	}
	return total, nil
}

// writeFrameVec sends one frame's pieces in order, after whatever bw (the
// bufio writer over w) holds. On a writev connection bw is flushed and the
// pieces go out as vectored writes, consecutive pieces packed into groups
// of at most deadlineChunk bytes, each under a fresh deadline; every piece
// must itself fit in deadlineChunk (the scan's pieces are a frame header,
// 8 KiB page images and a checksum trailer). Any other connection (net.Pipe,
// a wrapped conn) would take one Write per piece from net.Buffers, so there
// the pieces are buffered through bw like any other frame. The caller's
// slice is left intact.
func (w *deadlineWriter) writeFrameVec(bw *bufio.Writer, pieces [][]byte) error {
	if !w.writev {
		for _, p := range pieces {
			if _, err := bw.Write(p); err != nil {
				return err
			}
		}
		return nil
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	for len(pieces) > 0 {
		n, size := 1, len(pieces[0])
		for n < len(pieces) && size+len(pieces[n]) <= deadlineChunk {
			size += len(pieces[n])
			n++
		}
		w.grp = append(w.grp[:0], pieces[:n]...)
		w.vec = w.grp
		w.arm()
		if _, err := w.vec.WriteTo(w.conn); err != nil {
			return err
		}
		pieces = pieces[n:]
	}
	return nil
}

// handleConn runs one connection's request loop.
func (s *Server) handleConn(conn net.Conn, st *connState) {
	defer func() {
		s.dropConn(conn)
		conn.Close()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	dw := newDeadlineWriter(conn, s.cfg.WriteTimeout)
	bw := bufio.NewWriterSize(dw, 64<<10)
	for {
		if s.shuttingDown() {
			return
		}
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		f, err := ReadFrame(br)
		if err != nil {
			// EOF, idle timeout, or an unframeable stream: nothing to
			// resynchronise on, drop the connection.
			return
		}
		st.mu.Lock()
		st.active = true
		st.mu.Unlock()
		err = s.dispatch(conn, dw, bw, f)
		st.mu.Lock()
		st.active = false
		st.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// dispatch handles one request frame. A returned error means the connection
// is unusable (I/O failure); request-level failures are reported to the
// client in a FrameError and return nil. bw buffers control frames on top of
// dw; scans send their page frames through dw.writeFrameVec.
func (s *Server) dispatch(conn net.Conn, dw *deadlineWriter, bw *bufio.Writer, f Frame) error {
	switch f.Type {
	case FrameScan:
		req, err := DecodeScanRequest(f.Payload)
		if err != nil {
			return s.writeError(bw, fmt.Errorf("%w: %v", ErrBadRequest, err))
		}
		return s.handleScan(conn, dw, bw, req)
	case FrameStats:
		req, err := DecodeScanRequest(f.Payload)
		if err != nil {
			return s.writeError(bw, fmt.Errorf("%w: %v", ErrBadRequest, err))
		}
		return s.handleStats(bw, req)
	case FrameList:
		return s.handleList(bw)
	case FrameTraceReport:
		// The client's span trailer. One-way by contract: the client does
		// not read a reply, so writing anything here — even a FrameError
		// for a malformed payload — would be consumed as the answer to the
		// client's NEXT request and desynchronise the stream. Decode
		// failures are counted, logged, and dropped (fail-open).
		rep, err := DecodeTraceReport(f.Payload)
		if err != nil {
			s.metrics.traceReportsBad.Add(1)
			s.obs.Logger().Warn("dropped malformed trace report", "err", err.Error())
			return nil
		}
		s.obs.Tracer().Report(rep.TraceID, rep.Spans)
		s.metrics.traceReports.Add(1)
		return nil
	default:
		return s.writeError(bw, fmt.Errorf("%w: unexpected frame type %d", ErrBadRequest, f.Type))
	}
}

func (s *Server) writeError(bw *bufio.Writer, err error) error {
	if werr := WriteFrame(bw, FrameError, EncodeError(err)); werr != nil {
		return werr
	}
	return bw.Flush()
}

// handleScan streams the relation's raw page images to the client and, on
// the side, bins the requested column and refreshes the catalog histogram.
// The serving path never waits for histogram construction: statistics are a
// by-product of the bytes that were moving anyway. Frames carry a per-page
// CRC32C trailer (FramePagesCk) computed at encode time, so corruption
// anywhere downstream of storage is detectable by every consumer. A nonzero
// request offset resumes an interrupted scan at that page: the remaining
// pages stream normally, but the side path is skipped — a partial scan
// cannot yield an honest histogram — and the summary reports Degraded.
func (s *Server) handleScan(conn net.Conn, dw *deadlineWriter, bw *bufio.Writer, req ScanRequest) (err error) {
	// The scan number keys everything observable about this scan: its fault
	// fork, its trace, and its log records.
	id := uint64(s.scanSeq.Add(1))
	tr := s.obs.Tracer().Start(id, req.Table, req.Column, s.cfg.ShardLanes+4)
	// A request carrying trace context makes this scan continue the client's
	// distributed trace: the trace record keeps the wire identity and every
	// span recorded below gets a derived span ID under the server-side root.
	// The side salt folds in the local scan id so a redialled trace — several
	// server scans continuing the same trace ID — gets distinct span IDs per
	// attempt and each attempt's spans nest under their own "serve" root at
	// assembly. The root ID is derived even when no tracer is wired, so the
	// handshake frame is honest either way.
	var traceRoot uint64
	if req.TraceID != 0 {
		side := obs.SpanSideServer | id<<8
		traceRoot = obs.DeriveSpanID(req.TraceID, side, 0)
		tr.EnableTrace(req.TraceID, req.ParentSpanID, side)
	}
	scanStart := time.Now()
	resumed := req.Offset > 0
	var sum ScanSummary
	// failure captures request-level errors that are reported to the client
	// in-band (the connection stays usable, so err stays nil).
	var failure error
	defer func() {
		fail := err
		if fail == nil {
			fail = failure
		}
		if tr != nil {
			tr.AccelCycles = sum.AccelCycles
			tr.Refreshed = sum.Refreshed
			tr.Degraded = sum.Degraded
			if fail != nil {
				tr.Err = fail.Error()
			}
		}
		s.obs.Tracer().Publish(tr)
		// Traced scans pin their trace ID to the latency distribution's
		// exemplar slot, so the /metrics p99 line links back to a trace.
		s.metrics.scanLatency.ObserveWithExemplar(time.Since(scanStart).Nanoseconds(), req.TraceID)
		// The wide event: everything this scan did in one flight-recorder
		// row, keyed by the same id as the trace and the log records. The
		// trace is published (immutable) by now, so sharing its span slice
		// is safe.
		ev := obs.ScanEvent{
			ScanID: id, Source: "server",
			Table: req.Table, Column: req.Column,
			StartNS: scanStart.UnixNano(), WallNS: time.Since(scanStart).Nanoseconds(),
			Pages: sum.Pages, Bytes: sum.Bytes, Rows: sum.Rows,
			AccelCycles: sum.AccelCycles,
			Refreshed:   sum.Refreshed, Degraded: sum.Degraded, Resumed: resumed,
			QuarantinedPages: sum.QuarantinedPages, LanesRetired: sum.LanesRetired,
			SkippedTuples: sum.SkippedTuples,
		}
		if conn != nil && conn.RemoteAddr() != nil {
			ev.Client = conn.RemoteAddr().String()
		}
		if fail != nil {
			ev.Err = fail.Error()
		}
		if tr != nil {
			ev.Spans = tr.Spans
		}
		s.obs.FlightRec().Record(ev)
		log := s.obs.Logger()
		if fail != nil {
			log.Warn("scan failed", "scan", id, "table", req.Table,
				"column", req.Column, "err", fail.Error())
		} else {
			log.Info("scan served", "scan", id, "table", req.Table,
				"column", req.Column, "pages", sum.Pages, "bytes", sum.Bytes,
				"rows", sum.Rows, "refreshed", sum.Refreshed,
				"degraded", sum.Degraded, "accel_cycles", sum.AccelCycles,
				"dur", time.Since(scanStart))
		}
	}()

	ai := tr.Begin("accept")
	entry, failure := s.lookup(req.Table)
	if failure != nil {
		return s.writeError(bw, failure)
	}
	var meta colMeta
	if req.Column != "" {
		var ok bool
		meta, ok = entry.cols[req.Column]
		if !ok {
			failure = fmt.Errorf("%w: %q.%q", ErrUnknownColumn, req.Table, req.Column)
			return s.writeError(bw, failure)
		}
	}
	pages := entry.pageImages()
	sums := entry.pageSums()
	if req.Offset > uint32(len(pages)) {
		failure = fmt.Errorf("%w: resume offset %d beyond %d pages", ErrBadRequest, req.Offset, len(pages))
		return s.writeError(bw, failure)
	}
	tr.End(ai, 0)

	if req.TraceID != 0 {
		// The tracing handshake: sent first, before resume info or pages,
		// only for requests that carried trace context. Seeing it is what
		// licenses the client to send its span trailer later.
		if werr := WriteFrame(bw, FrameTraceInfo, EncodeTraceInfo(TraceInfo{
			TraceID:    req.TraceID,
			RootSpanID: traceRoot,
		})); werr != nil {
			return werr
		}
	}

	inj := s.cfg.Faults.Fork(fmt.Sprintf("scan%d", id))

	start := int(req.Offset)
	if resumed {
		s.metrics.retriesServed.Add(1)
		// Align the resume down to a frame boundary and announce the
		// effective start before any pages move: the frames re-sent from
		// here are byte-identical to the original delivery (same page
		// windows, same checksum trailers), and the client skips the
		// overlap it already verified.
		start -= start % s.cfg.PagesPerFrame
		if werr := WriteFrame(bw, FrameResumeInfo, EncodeResumeInfo(uint32(start))); werr != nil {
			return werr
		}
	}
	var sp *sidePath
	if !resumed {
		sp = s.startSidePath(entry, req, meta, inj, tr)
		if sp != nil {
			defer sp.abandon()
		}
	}

	// Scan journal: with durability attached the scan's lifecycle rides the
	// WAL at frame granularity, so a kill -9 mid-scan leaves a recoverable
	// in-flight record a restarted server can match a resume against. A
	// resume consumes the entry the dead process left behind; the journal
	// entry for this serving attempt closes whichever way it exits — only a
	// crash leaves it open, which is exactly what the journal records.
	dm := s.cfg.Durable
	if resumed {
		if rec, ok := dm.AdoptRecovered(req.Table, req.Column); ok {
			s.metrics.resumesAdopted.Add(1)
			s.obs.Logger().Info("resume adopted recovered scan", "scan", id,
				"journal", rec.ID, "table", req.Table, "column", req.Column,
				"journal_pages", rec.Pages, "resume_page", req.Offset)
		}
	}
	jid := dm.ScanStarted(req.Table, req.Column, uint32(start))
	journalHW := uint32(start)
	defer func() { dm.ScanEnded(jid, journalHW) }()

	// sideWanted: a statistics refresh was requested and possible, so a
	// scan that ends without one must say so (Degraded), whatever the
	// reason — saturation, resumption, faults, or the watchdog.
	sideWanted := req.Column != "" && meta.ok

	si := tr.Begin("stream")
	// Each page frame is one vector — header, the entry's stable page
	// images, checksum trailer — so on a socket no page byte is copied on
	// its way out (writeFrameVec).
	ppf := s.cfg.PagesPerFrame
	hdr := make([]byte, FrameHeaderSize)
	trailer := make([]byte, 0, ppf*PageChecksumSize)
	imgs := make([][]byte, 0, ppf)
	vec := make([][]byte, 0, ppf+2)
	// damaged holds scratch copies of injected-corrupt pages, reused frame
	// to frame: the wire write and the side copy both finish with a frame
	// before the next one is built.
	var damaged []byte
	for off := start; off < len(pages); off += ppf {
		end := min(off+ppf, len(pages))
		imgs = imgs[:0]
		for _, pg := range pages[off:end] {
			imgs = append(imgs, pg.Bytes())
		}
		trailer = trailer[:0]
		for _, ck := range sums[off:end] {
			trailer = binary.LittleEndian.AppendUint32(trailer, ck)
		}
		// Injected in-flight corruption: the damage lands after the
		// checksum trailer was computed, exactly like a relay flipping
		// bits after storage vouched for the bytes. The wire carries the
		// corrupt image — a scratch copy swapped into the vector, so the
		// stable image stays clean (the raw path fails open and never
		// rewrites data); the trailer is what lets the consumers catch it.
		for i := off; i < end; i++ {
			if inj.Should(faults.PageCorrupt) {
				if damaged == nil {
					damaged = make([]byte, ppf*page.Size)
				}
				k := i - off
				img := damaged[k*page.Size : (k+1)*page.Size]
				copy(img, imgs[k])
				pos := inj.Intn(faults.PageCorrupt, page.Size)
				img[pos] ^= byte(1 + inj.Intn(faults.PageCorrupt, 255))
				imgs[k] = img
			}
		}
		if inj.Should(faults.ConnReset) {
			// Injected transport failure: the connection dies mid-scan,
			// taking the side path down with it (deferred abandon).
			conn.Close()
			return fmt.Errorf("server: injected connection reset")
		}
		n := (end - off) * page.Size
		putHeader(hdr, FramePagesCk, n+len(trailer))
		vec = append(append(append(vec[:0], hdr), imgs...), trailer)
		if werr := dw.writeFrameVec(bw, vec); werr != nil {
			return werr
		}
		sum.Pages += uint32(end - off)
		sum.Bytes += uint64(n)
		dm.ScanProgress(jid, uint32(end))
		journalHW = uint32(end)
		if sp != nil {
			sp.feed(imgs, off, inj)
		}
	}
	tr.End(si, 0)

	if sp != nil {
		side := sp.finish()
		sum.Rows = side.rows
		sum.Refreshed = side.refreshed
		sum.Degraded = side.degraded
		sum.AccelCycles = side.cycles
		sum.AccelSeconds = side.seconds
		sum.SkippedTuples = side.skippedTuples
		sum.QuarantinedPages = side.quarantinedPages
		sum.LanesRetired = side.lanesRetired
	}
	if sideWanted && !sum.Refreshed {
		// No refresh where one was wanted: the scan's side effect is
		// missing, and the summary must not read like a clean no-op.
		sum.Degraded = true
	}
	if sum.Degraded {
		s.metrics.scansDegraded.Add(1)
	}
	s.metrics.scansServed.Add(1)
	s.metrics.pagesMoved.Add(int64(sum.Pages))
	s.metrics.bytesMoved.Add(int64(sum.Bytes))

	if err := WriteFrame(bw, FrameScanEnd, EncodeScanSummary(sum)); err != nil {
		return err
	}
	return bw.Flush()
}

// handleStats answers with the freshest catalog entry for the column.
func (s *Server) handleStats(bw *bufio.Writer, req ScanRequest) error {
	entry, err := s.lookup(req.Table)
	if err != nil {
		return s.writeError(bw, err)
	}
	if _, ok := entry.cols[req.Column]; !ok {
		return s.writeError(bw, fmt.Errorf("%w: %q.%q", ErrUnknownColumn, req.Table, req.Column))
	}
	st := s.catalog.Get(req.Table, req.Column)
	if st == nil || st.Histogram == nil {
		return s.writeError(bw, fmt.Errorf("%w: %q.%q (serve a scan first)", ErrNoStats, req.Table, req.Column))
	}
	raw, err := st.Histogram.MarshalBinary()
	if err != nil {
		return s.writeError(bw, fmt.Errorf("server: encoding histogram: %v", err))
	}
	blobs, err := sketch.EncodeBlocks(st.Sketches)
	if err != nil {
		return s.writeError(bw, fmt.Errorf("server: encoding sketches: %v", err))
	}
	s.metrics.statsServed.Add(1)
	payload := EncodeStatsResult(StatsResult{
		RowCount:  st.RowCount,
		NDistinct: st.NDistinct,
		Version:   st.Version,
		Histogram: raw,
		Sketches:  blobs,
	})
	if err := WriteFrame(bw, FrameStatsResult, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// handleList answers with the registered tables, their schemas, and which
// columns currently have served-scan statistics.
func (s *Server) handleList(bw *bufio.Writer) error {
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]TableInfo, 0, len(names))
	for _, name := range names {
		e := s.tables[name]
		info := TableInfo{Name: name, Rows: int64(e.rel.NumRows())}
		for _, c := range e.rel.Schema.Columns {
			info.Columns = append(info.Columns, c.Name)
		}
		infos = append(infos, info)
	}
	s.mu.RUnlock()
	for i := range infos {
		infos[i].StatsColumns = s.catalog.StatsColumns(infos[i].Name)
	}
	if err := WriteFrame(bw, FrameTables, EncodeTableList(infos)); err != nil {
		return err
	}
	return bw.Flush()
}

// sideFrame is one unit of side-path work: a copied span of page bytes plus
// where in the relation it came from, so the lane can verify each page
// against the storage-authoritative checksum.
type sideFrame struct {
	bufp *[]byte
	// pageOff is the relation-wide index of the first page in the buffer.
	pageOff int
	// intended is how many pages the frame was supposed to carry; when the
	// buffer holds fewer whole pages (an injected truncation), the missing
	// tail is quarantined.
	intended int
}

// sideLane is one shard of a scan's side path: a private Parser+Binner pair
// consuming page frames from its own channel. Frames always hold whole
// pages and the Parser FSM resets at page boundaries, so lanes never share
// parser state.
type sideLane struct {
	idx    int // lane index within the scan, for traces and gauges
	parser *core.Parser
	binner *core.Binner
	ch     chan sideFrame
	inj    *faults.Injector

	// Written only by the lane goroutine, read after done.
	parseErr    error
	faulted     bool // injected panic/stall: the lane's partial work is void
	quarantined int64
	done        chan struct{}

	// wallStart/wallEnd bracket the lane goroutine's lifetime in unix
	// nanoseconds. They are atomics because a lane retired for stalling is
	// still running when the serving goroutine copies them into the trace.
	wallStart, wallEnd atomic.Int64

	// dead is the serving goroutine's view: stop feeding this lane.
	dead bool
	// joined records that stop() observed the lane goroutine exit, so the
	// lane's state is quiescent and may be recycled.
	joined bool
}

// sidePath is one scan's splitter copy: frames are duplicated and dealt
// round-robin across ShardLanes lanes, each running the Parser→Binner
// pipeline while the serving goroutine keeps streaming. At finish the lane
// states fan back in — bin vectors merge via core.Binner.Merge and the
// completion cycle is the max-lane critical path plus one aggregation pass
// (hw.CriticalPath) — before the unchanged histogram chain runs.
//
// The side path is strictly subordinate to the raw stream: a lane that
// panics or stalls is retired (its partial state discarded), a page that
// fails its checksum is quarantined, a watchdog cancels work that overruns
// the scan deadline — and in every one of those cases the page stream is
// already complete or still completing at full speed. What degrades is only
// the statistic, and the degradation is always reported, never silent.
type sidePath struct {
	s     *Server
	entry *tableEntry
	req   ScanRequest
	sums  []uint32

	lanes []*sideLane
	next  int // round-robin cursor, serving goroutine only
	clock hw.Clock
	// pageCap is the relation's rows-per-page (pages are fully packed), so
	// lanes can turn a page index into the global row ordinal the sketch
	// chain's position cursor needs.
	pageCap int
	// pages are the relation's stable page images. When zeroCopy is set (no
	// corruption or truncation fault points armed for this scan), the wire
	// frame is byte-identical to these images, so lanes parse them directly
	// instead of a copied side buffer — the splitter aliases the verified
	// page buffer rather than duplicating it.
	pages    []*page.Page
	zeroCopy bool

	// tr is the owning scan's trace; finish() appends the lane, merge, and
	// install spans to it. Nil when tracing is off.
	tr *obs.ScanTrace

	// release unblocks injected lane stalls at teardown so no goroutine
	// outlives the scan.
	release chan struct{}
	// cancelled is set by the watchdog; lanes drain without binning and
	// finish() refuses to install.
	cancelled atomic.Bool
	watchdog  *time.Timer

	// framesLost notes frames no live lane would take (all retired or all
	// stalled past the timeout): the merged view is missing that data.
	framesLost bool
	retired    int
	// quarantinedPages is settled in stop(), after the lanes are joined.
	quarantinedPages int64

	stopped bool
}

// startSidePath acquires a drain worker and wires the side path, or returns
// nil when statistics must be skipped: no column requested, an empty
// column, or a fully busy worker pool (the stream always wins; the scan
// fails open and the catalog simply isn't refreshed this time). Injected
// drain-pool saturation exercises the same skip path as the real thing.
func (s *Server) startSidePath(entry *tableEntry, req ScanRequest, meta colMeta, inj *faults.Injector, tr *obs.ScanTrace) *sidePath {
	if req.Column == "" {
		return nil
	}
	if !meta.ok {
		return nil
	}
	if inj.Should(faults.DrainSaturate) {
		s.metrics.sideSkipped.Add(1)
		return nil
	}
	select {
	case s.drainSem <- struct{}{}:
	default:
		s.metrics.sideSkipped.Add(1)
		return nil
	}
	sp := &sidePath{
		s:       s,
		entry:   entry,
		req:     req,
		sums:    entry.pageSums(),
		clock:   s.cfg.Binner.Clock,
		lanes:   make([]*sideLane, s.cfg.ShardLanes),
		release: make(chan struct{}),
		tr:      tr,
	}
	sp.pages = entry.pageImages()
	if len(sp.pages) > 0 {
		sp.pageCap = sp.pages[0].Capacity()
	}
	// The only ways a side copy can differ from the stable page images are
	// the in-flight corruption and truncation points; with neither armed the
	// copy is provably redundant and the lanes alias the images instead.
	sp.zeroCopy = !inj.Enabled(faults.PageCorrupt) && !inj.Enabled(faults.PageTruncate)
	for i := range sp.lanes {
		pre, err := core.RangeFor(meta.min, meta.max, 1)
		if err != nil {
			<-s.drainSem
			s.metrics.sideSkipped.Add(1)
			return nil
		}
		// Each lane's injector drives both its lane faults and its binner's
		// hw.mem.* points. Forking per lane (rather than letting every lane
		// of every concurrent scan draw from one shared root injector) keeps
		// memory-fault decisions reproducible from the seed alone, whatever
		// the goroutine interleaving — the guarantee Fork exists to provide.
		linj := inj.Fork(fmt.Sprintf("side-lane%d", i))
		bcfg := s.cfg.Binner
		if bcfg.Faults == nil {
			bcfg.Faults = linj
		}
		// Live ECC/latency event sinks: these fire as faults are handled in
		// any lane (including lanes later retired), where the folded
		// ecc_corrected/bins_quarantined counters only see merged state.
		bcfg.MemEvents = s.metrics.memEvents
		// Every lane charges its cycle attribution under its lane frame;
		// lanes that never reach Finish (retired, watchdogged, abandoned)
		// never flush, so discarded work stays out of the profile — the
		// property the consistency gauge checks.
		bcfg.Prof = s.obs.Profiler()
		bcfg.ProfLane = fmt.Sprintf("lane%d", i)
		// Each lane runs its own sketch chain beside its binner; the chains
		// merge with the bin state at fan-in, and a retired lane's chain is
		// discarded with its binner. The lane injector also drives the
		// sketch.corrupt / sketch.retire points, evaluated at page
		// boundaries.
		laneChain := sketch.NewChain(s.cfg.Sketch)
		laneChain.SetFaults(linj)
		bcfg.Sketches = laneChain
		sp.lanes[i] = &sideLane{
			idx:    i,
			parser: core.NewParser(meta.spec),
			binner: core.NewBinner(bcfg, pre),
			ch:     make(chan sideFrame, s.cfg.SideBufDepth),
			done:   make(chan struct{}),
			inj:    linj,
		}
		go sp.run(sp.lanes[i])
	}
	if s.cfg.ScanDeadline > 0 {
		sp.watchdog = time.AfterFunc(s.cfg.ScanDeadline, func() {
			sp.cancelled.Store(true)
		})
	}
	return sp
}

// feed hands the next live lane a copy of one relayed frame — imgs are the
// page images the wire vector carried, in order — round-robin. A full lane
// channel applies backpressure up to SideStallTimeout — bounded memory —
// after which the lane is presumed stuck and retired; a lane whose
// goroutine died is retired on sight. When no live lane remains the frame
// is dropped and the eventual histogram honestly reports the loss.
func (sp *sidePath) feed(imgs [][]byte, pageOff int, inj *faults.Injector) {
	if sp.cancelled.Load() {
		return // watchdog fired: the side path is already forfeit
	}
	intended := len(imgs)
	var f sideFrame
	if sp.zeroCopy {
		// No fault point can shorten or damage the side copy, so the frame
		// bytes are provably identical to the relation's stable page images
		// and the copy is skipped: the frame carries only its page window and
		// the lane parses the images in place.
		f = sideFrame{pageOff: pageOff, intended: intended}
	} else {
		limit := intended * page.Size
		if inj.Should(faults.PageTruncate) {
			// Injected short copy: the splitter's DMA slipped and the side
			// buffer holds only a prefix of the frame. The wire already
			// carried the full bytes; only the statistic's copy is short.
			limit = int(inj.Intn(faults.PageTruncate, int64(limit)))
		}
		// The copy is assembled from the same pieces the wire sent,
		// damaged pages included.
		bufp := sp.s.bufPool.Get().(*[]byte)
		buf := (*bufp)[:0]
		for _, img := range imgs {
			buf = append(buf, img[:min(len(img), limit-len(buf))]...)
		}
		*bufp = buf
		f = sideFrame{bufp: bufp, pageOff: pageOff, intended: intended}
	}

	for tries := 0; tries < len(sp.lanes); tries++ {
		l := sp.lanes[sp.next]
		sp.next = (sp.next + 1) % len(sp.lanes)
		if l.dead {
			continue
		}
		select {
		case l.ch <- f:
			return
		case <-l.done:
			sp.retireLane(l)
			continue
		default:
		}
		timer := time.NewTimer(sp.s.cfg.SideStallTimeout)
		select {
		case l.ch <- f:
			timer.Stop()
			return
		case <-l.done:
			timer.Stop()
			sp.retireLane(l)
		case <-timer.C:
			sp.retireLane(l)
		}
	}
	// No lane took it: the side path loses this frame's rows, and says so.
	sp.framesLost = true
	sp.putBuf(f)
}

// putBuf returns a frame's side buffer to the pool; zero-copy frames carry
// none.
func (sp *sidePath) putBuf(f sideFrame) {
	if f.bufp != nil {
		sp.s.bufPool.Put(f.bufp)
	}
}

func (sp *sidePath) retireLane(l *sideLane) {
	if !l.dead {
		l.dead = true
		sp.retired++
	}
}

// run is one lane's drain worker: each whole page in the frame is verified
// against its storage checksum — corrupt or missing pages are quarantined,
// counted, and skipped — and the surviving pages flow through the Parser
// FSM into the Binner, exactly as in stream.Tap but decoupled from the wire
// by the lane channel.
func (sp *sidePath) run(l *sideLane) {
	l.wallStart.Store(time.Now().UnixNano())
	defer func() {
		if r := recover(); r != nil {
			l.faulted = true
		}
		l.wallEnd.Store(time.Now().UnixNano())
		close(l.done)
	}()
	var vals []int64
	for f := range l.ch {
		if l.faulted || l.parseErr != nil || sp.cancelled.Load() {
			sp.putBuf(f)
			continue // drain only: fail open, never block the feeder
		}
		if l.inj.Should(faults.LanePanic) {
			sp.putBuf(f)
			panic("injected side-lane fault")
		}
		if l.inj.Should(faults.LaneStall) {
			l.faulted = true
			sp.putBuf(f)
			<-sp.release // hold until teardown, then drain
			continue
		}
		var buf []byte
		whole := f.intended
		if f.bufp != nil {
			buf = *f.bufp
			whole = len(buf) / page.Size
		}
		for k := 0; k < f.intended; k++ {
			if k >= whole || (buf == nil && f.pageOff+k >= len(sp.pages)) {
				// Truncated away: the page never reached the side buffer.
				l.quarantined++
				continue
			}
			var img []byte
			if buf != nil {
				img = buf[k*page.Size : (k+1)*page.Size]
			} else {
				// Zero-copy frame: the verified, immutable page image itself.
				img = sp.pages[f.pageOff+k].Bytes()
			}
			if page.Checksum(img) != sp.sums[f.pageOff+k] {
				l.quarantined++
				continue
			}
			var err error
			vals, err = l.parser.Feed(img, vals[:0])
			if err != nil {
				l.parseErr = err
				break
			}
			// Pages are fully packed, so this page's first row ordinal is
			// its index times the per-page capacity; repositioning the
			// sketch cursor here keeps position-sensitive blocks exact no
			// matter which lane the frame landed on.
			l.binner.SetStreamPos(int64(f.pageOff+k) * int64(sp.pageCap))
			l.binner.PushAll(vals)
		}
		sp.putBuf(f)
	}
}

// stop tears the side path down: it unblocks injected stalls, closes the
// lane channels, waits for the drain workers against a shared deadline —
// retiring any lane that will not finish in time — and releases the pool
// slot. Idempotent; called from the serving goroutine only.
func (sp *sidePath) stop() {
	if sp.stopped {
		return
	}
	sp.stopped = true
	if sp.watchdog != nil {
		sp.watchdog.Stop()
	}
	close(sp.release)
	for _, l := range sp.lanes {
		close(l.ch)
	}
	deadline := time.NewTimer(sp.s.cfg.SideStallTimeout)
	defer deadline.Stop()
	for _, l := range sp.lanes {
		select {
		case <-l.done:
			l.joined = true
		case <-deadline.C:
			// The lane is wedged past the drain deadline. Its goroutine
			// can only be blocked on the (now closed) release channel or
			// mid-drain, so it will exit on its own; the scan does not
			// wait, and the lane's partial state is discarded.
			sp.retireLane(l)
		}
	}
	// Settle the casualty list now that the joined lanes' flags are
	// visible, and account for it — even a scan abandoned mid-stream
	// (connection death) reports what it quarantined and retired.
	for _, l := range sp.lanes {
		if l.faulted {
			sp.retireLane(l)
		}
		sp.quarantinedPages += l.quarantined
	}
	sp.s.metrics.pagesQuarantined.Add(sp.quarantinedPages)
	sp.s.metrics.lanesRetired.Add(int64(sp.retired))
	// A retired lane that did join is quiescent and its partial state is
	// discarded by construction (only healthy lanes merge into the installed
	// result), so its binner scratch and sketch chain go back to the pools.
	// A lane that missed the drain deadline may still be running and keeps
	// its state — the pools never see memory a goroutine could touch.
	for _, l := range sp.lanes {
		if l.dead && l.joined && l.binner != nil {
			l.binner.SketchChain().Release()
			l.binner.Release()
			l.binner = nil
		}
	}
	<-sp.s.drainSem
}

// sideResult is everything finish() learned about the scan's side effect.
type sideResult struct {
	rows             uint64
	refreshed        bool
	degraded         bool
	cycles           uint64
	seconds          float64
	skippedTuples    uint64
	quarantinedPages uint32
	lanesRetired     uint32
}

// finish completes the side path: it fans the surviving lane states back in
// (merged bin counts, max-lane critical path plus one aggregation pass),
// runs the histogram chain over the merged view, installs the Compressed
// histogram in the catalog, and reports the scan's statistics yield plus
// the simulated hardware cost. Faults reaching this point shape the result
// in exactly one of two ways: either every loss was masked and the
// histogram is exact, or the install is marked Degraded with the loss
// quantified — there is no silent third outcome.
func (sp *sidePath) finish() sideResult {
	sp.stop()
	var res sideResult

	// Retired lanes still get a trace span — marked, with their discarded
	// hardware accounting zeroed — so /scans shows which shard died.
	for _, l := range sp.lanes {
		if l.dead {
			sp.tr.AddSpan("lane", l.idx, l.wallStart.Load(), l.wallEnd.Load(), 0, true)
		}
	}

	healthy := sp.lanes[:0:0]
	for _, l := range sp.lanes {
		if l.dead {
			continue
		}
		if l.parseErr != nil {
			// A real data error (not injected): fail open like before.
			sp.s.metrics.parseErrors.Add(1)
			res.degraded = true
			return res
		}
		healthy = append(healthy, l)
	}
	res.quarantinedPages = uint32(sp.quarantinedPages)
	res.lanesRetired = uint32(sp.retired)

	if sp.cancelled.Load() {
		// Watchdog: whatever the lanes hold is incomplete in an unknown
		// way. Report the overrun; install nothing.
		res.degraded = true
		return res
	}
	if len(healthy) == 0 {
		res.degraded = true
		return res
	}

	laneCycles := make([]int64, len(healthy))
	var laneSum int64
	for i, l := range healthy {
		_, ls := l.binner.Finish()
		laneCycles[i] = ls.Cycles
		laneSum += ls.Cycles
		// Healthy lane span: wall clock from the lane goroutine's own
		// stamps, hardware cost from the lane's binning completion cycle.
		// The trace invariant max(lane HWCycles) + merge HWCycles ==
		// AccelCycles follows from hw.CriticalPath below.
		sp.tr.AddSpan("lane", l.idx, l.wallStart.Load(), l.wallEnd.Load(), ls.Cycles, false)
		sp.s.metrics.setLaneCycles(l.idx, ls.Cycles)
	}
	// Healthy lanes flushed their attribution when Finish ran above; record
	// the matching expectation now, so even the cannot-happen merge-failure
	// return below leaves profile and counter agreeing.
	sp.s.metrics.hwprofAttributed.Add(laneSum)
	mi := sp.tr.Begin("merge")
	merged := healthy[0].binner
	for _, l := range healthy[1:] {
		if err := merged.Merge(l.binner); err != nil {
			// Lanes share one geometry, so this cannot happen; treat it
			// like a parse failure and fail open.
			sp.s.metrics.parseErrors.Add(1)
			res.degraded = true
			return res
		}
	}
	sp.s.metrics.laneMerges.Add(int64(len(healthy) - 1))
	vec, bstats := merged.Finish()
	sp.s.metrics.faultsCorrected.Add(bstats.FaultsCorrected)
	sp.s.metrics.binsQuarantined.Add(bstats.BinsQuarantined)
	if bstats.Items == 0 {
		res.degraded = true
		return res
	}

	// The one honesty invariant everything above funnels into: any gap
	// between what the relation holds and what the merged view counted —
	// retired lanes, quarantined pages, dropped frames, bin-memory losses
	// — makes the histogram Degraded, with the gap as its skipped count.
	relRows := int64(sp.entry.rel.NumRows())
	skipped := relRows - vec.Total()
	if skipped < 0 {
		skipped = 0
	}
	degraded := skipped > 0 || sp.retired > 0 || sp.quarantinedPages > 0 ||
		bstats.BinsQuarantined > 0 || sp.framesLost

	var agg int64
	if len(healthy) > 1 {
		agg = hw.AggregationCycles(vec.NumBins(), sp.s.cfg.Binner.Mem.BinsPerLine)
	}
	bstats.Cycles = hw.CriticalPath(laneCycles, agg)
	comp := core.NewCompressedBlock(sp.s.cfg.TopK, sp.s.cfg.Buckets, vec.Total())
	chain := core.NewScanner().Run(vec, comp)
	// The merged sketch chain covers every healthy lane (retired lanes'
	// chains were discarded with their binners). Its cycles ride the merge
	// span beside the aggregation pass and the histogram chain, so the
	// trace invariant — max(lane cycles) + merge cycles == AccelCycles —
	// and the hwprof consistency gauge both keep holding with sketches on.
	sideChain := merged.SketchChain()
	sketchCycles := sideChain.TotalCycles()
	if prof := sp.s.obs.Profiler(); prof != nil {
		if agg > 0 {
			n := prof.Node("merged", "aggregate", "fanin", hwprof.ReasonAgg)
			n.Add(agg)
			n.AddEvents(1)
		}
		chain.ChargeProfile(prof, "merged")
		sideChain.Charge(prof, "merged")
		sp.s.metrics.hwprofAttributed.Add(agg + chain.TotalCycles + sketchCycles)
	}
	// The merge span is charged everything past the lanes' own binning: the
	// fan-in aggregation pass, the histogram chain, and the sketch chain.
	sp.tr.End(mi, agg+chain.TotalCycles+sketchCycles)
	h := &hist.Histogram{
		Kind:          hist.Compressed,
		Buckets:       comp.Buckets(),
		Frequent:      comp.Frequent(),
		Total:         vec.Total(),
		DistinctTotal: int64(vec.Cardinality()),
		Degraded:      degraded,
		Skipped:       skipped,
	}
	if degraded {
		// The sketches saw the same incomplete stream the histogram did;
		// they are served, but flagged, never silently wrong.
		sideChain.MarkDegraded()
	}
	ii := sp.tr.Begin("install")
	sp.s.catalog.Put(sp.req.Table, sp.req.Column, &dbms.ColumnStats{
		Histogram: h,
		Sketches:  sideChain.Blocks(),
		NDistinct: int64(vec.Cardinality()),
		RowCount:  relRows,
	})
	sp.tr.End(ii, 0)
	sp.s.publishSketch(sideChain)
	total := uint64(bstats.Cycles + chain.TotalCycles + sketchCycles)
	sp.s.metrics.rowsBinned.Add(bstats.Items)
	sp.s.metrics.histRefreshed.Add(1)
	sp.s.metrics.accelCycles.Add(int64(total))
	sp.s.publishHwprof()

	res.rows = uint64(bstats.Items)
	res.refreshed = true
	res.degraded = degraded
	res.cycles = total
	res.seconds = sp.clock.Seconds(int64(total))
	res.skippedTuples = uint64(skipped)

	// The merged-away lanes folded everything they knew into the survivor,
	// whose chain blocks now live in the catalog; their own scratch returns
	// to the pools. The survivor is never recycled — the install owns it.
	for _, l := range healthy[1:] {
		if sc := l.binner.SketchChain(); sc != sideChain {
			sc.Release()
		}
		l.binner.Release()
		l.binner = nil
	}
	return res
}

// abandon releases the side path without finishing it: the scan failed
// before its summary, so nothing is installed and the workers just drain.
// Idempotent, and a no-op after finish.
func (sp *sidePath) abandon() {
	sp.stop()
}
