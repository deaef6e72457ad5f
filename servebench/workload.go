package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/durable"
	"streamhist/internal/hist"
	"streamhist/internal/obs"
	"streamhist/internal/server"
	"streamhist/internal/stream"
	"streamhist/internal/table"
	"streamhist/internal/tpch"
)

// Workloads. Each one stresses a different layer; README.md gives the
// reasoning and the prediction table.
const (
	bulkMove     = "bulk-move"
	bulkRefresh  = "bulk-refresh"
	catalogChurn = "catalog-churn"
)

var workloads = []SpecLoad{
	{bulkMove, "column-less scans of one 500k-row lineitem: the wire alone (framing, page verify, sink); the side path never starts"},
	{bulkRefresh, "the same scans refreshing l_quantity with the default sketch chain: the side path sets the stream's pace"},
	{catalogChurn, "durable server, 16 small tables: refresh scans, STATS reads and Register writes, where per-scan fixed costs dominate"},
}

// sizes fixes how much data a workload generates. The full sizes are the
// benchmark's; tests use a reduced copy.
type sizes struct {
	bigRows   int // the bulk workloads' lineitem
	smallRows int // each catalog-churn table
	tables    int // catalog-churn table count
	versions  int // pre-generated versions per re-registered table
	clients   int
	setupReps int
}

var fullSizes = sizes{bigRows: 500_000, smallRows: 20_000, tables: 16, versions: 3, clients: 2, setupReps: 9}

// castagnoli is the CRC32C table the sink digests use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// version is one generated relation plus the digest of its storage page
// images: what every scan of it must deliver.
type version struct {
	rel    *table.Relation
	digest uint32
	size   int64
}

func newVersion(rel *table.Relation) (*version, error) {
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, stream.NewPagesReader(rel))
	if err != nil {
		return nil, fmt.Errorf("digest %s: %w", rel.Name, err)
	}
	return &version{rel: rel, digest: h.Sum32(), size: n}, nil
}

// tableSet is one served table and its pre-generated versions. Registration
// cycles through the versions; regs counts registrations after the first,
// so versions[regs%len] is the one the server holds. begun counts
// registrations that have started: it runs one ahead of regs while a
// Register is in flight, and the server may already serve that version.
type tableSet struct {
	name     string
	versions []*version
	mu       sync.Mutex // serialises Register of this table
	regs     atomic.Int64
	begun    atomic.Int64
}

func (t *tableSet) at(reg int64) *version { return t.versions[int(reg%int64(len(t.versions)))] }
func (t *tableSet) current() *version     { return t.at(t.regs.Load()) }

// pair is a (table, column) the workload refreshes: warm-up refreshes every
// pair and the final check compares each against the in-process oracle.
type pair struct {
	t      *tableSet
	column string
}

type opKind uint8

const (
	opScan opKind = iota
	opStats
	opRegister
	numKinds
)

var kindNames = [numKinds]string{"scan", "stats", "register"}

type op struct {
	kind   opKind
	t      *tableSet
	column string
}

// workload is a generated data set plus the op mix each client draws from.
type workload struct {
	durable bool
	tables  []*tableSet
	pairs   []pair
	// next returns a client's next op, drawn from its seeded stream.
	next func(rng *rand.Rand) op
	// lockstep makes the clients start each op together. The bulk
	// workloads use it: both scans then overlap for their whole length,
	// instead of at a phase that drifts from run to run.
	lockstep bool
	// refs memoises the oracle histogram per (version, column).
	refMu sync.Mutex
	refs  map[refKey]*hist.Histogram
}

type refKey struct {
	v      *version
	column string
}

// subSeed derives independent generator seeds from the workload seed.
func subSeed(seed uint64, salt uint64) uint64 {
	z := seed + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func genTable(name string, rows, versions int, seed uint64) (*tableSet, error) {
	t := &tableSet{name: name}
	for v := 0; v < versions; v++ {
		rel := tpch.Lineitem(rows, 1, subSeed(seed, uint64(v)+1))
		rel.Name = name
		ver, err := newVersion(rel)
		if err != nil {
			return nil, err
		}
		t.versions = append(t.versions, ver)
	}
	return t, nil
}

// opMix weighs catalog-churn's op kinds: each op a client draws is a scan,
// a STATS read or a Register with probability proportional to its weight.
type opMix [numKinds]int

// defaultMix is catalog-churn's mix: 60% refresh scans, 30% STATS reads,
// 10% Registers. No measured trace fixes it; it is an assumption of a
// read-mostly catalog whose statistics come from scans, and README.md
// shows that the layer predictions also hold under another mix.
var defaultMix = opMix{6, 3, 1}

func (m opMix) String() string { return fmt.Sprintf("%d,%d,%d", m[opScan], m[opStats], m[opRegister]) }

// parseMix reads "scan,stats,register" weights. The scan weight must be
// positive: every workload reports scan metrics.
func parseMix(s string) (opMix, error) {
	var m opMix
	if _, err := fmt.Sscanf(s, "%d,%d,%d", &m[opScan], &m[opStats], &m[opRegister]); err != nil {
		return m, fmt.Errorf("mix %q: %w", s, err)
	}
	if m[opScan] <= 0 || m[opStats] < 0 || m[opRegister] < 0 {
		return m, fmt.Errorf("mix %q: weights must be non-negative and the scan weight positive", s)
	}
	return m, nil
}

// draw picks an op kind by weight.
func (m opMix) draw(rng *rand.Rand) opKind {
	r := rng.IntN(m[opScan] + m[opStats] + m[opRegister])
	for k := opScan; k < numKinds; k++ {
		if r < m[k] {
			return k
		}
		r -= m[k]
	}
	panic("unreachable")
}

// newWorkload generates every input of the named workload from seed,
// including every table version catalog-churn will register, so the
// measured Register calls time only the server. mix applies to
// catalog-churn only; the bulk workloads only scan.
func newWorkload(name string, seed uint64, mix opMix, sz sizes) (*workload, error) {
	w := &workload{refs: map[refKey]*hist.Histogram{}}
	switch name {
	case bulkMove, bulkRefresh:
		big, err := genTable("lineitem", sz.bigRows, 1, subSeed(seed, 100))
		if err != nil {
			return nil, err
		}
		w.tables = []*tableSet{big}
		w.pairs = []pair{{big, "l_quantity"}}
		scanCol := ""
		if name == bulkRefresh {
			scanCol = "l_quantity"
		}
		w.lockstep = true
		w.next = func(*rand.Rand) op { return op{opScan, big, scanCol} }
	case catalogChurn:
		w.durable = true
		cols := []string{"l_quantity", "l_partkey"}
		for i := 0; i < sz.tables; i++ {
			t, err := genTable(fmt.Sprintf("t%02d", i), sz.smallRows, sz.versions, subSeed(seed, 300+uint64(i)))
			if err != nil {
				return nil, err
			}
			w.tables = append(w.tables, t)
			for _, c := range cols {
				w.pairs = append(w.pairs, pair{t, c})
			}
		}
		w.next = func(rng *rand.Rand) op {
			t := w.tables[rng.IntN(len(w.tables))]
			// One op in four is on the wide-domain column. Its scans take
			// about twice as long, so scan_ms_p50 falls inside the
			// l_quantity scans' latencies and scan_ms_p90 inside the
			// l_partkey ones'. With equal shares the median would sit in
			// the gap between the two and jump across it from run to run.
			c := cols[0]
			if rng.IntN(4) == 0 {
				c = cols[1]
			}
			if k := mix.draw(rng); k != opRegister {
				return op{k, t, c}
			}
			return op{opRegister, t, ""}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

// reference is the oracle for a served histogram: the same relation and
// column through the in-process data path.
func (w *workload) reference(v *version, column string) (*hist.Histogram, int64, error) {
	w.refMu.Lock()
	defer w.refMu.Unlock()
	k := refKey{v, column}
	if h, ok := w.refs[k]; ok {
		return h, int64(v.rel.NumRows()), nil
	}
	dp, err := stream.NewDataPath(v.rel, column, stream.GigabitEthernet)
	if err != nil {
		return nil, 0, err
	}
	res, err := dp.Scan(io.Discard, 0)
	if err != nil {
		return nil, 0, err
	}
	w.refs[k] = res.Results.Compressed
	return res.Results.Compressed, int64(v.rel.NumRows()), nil
}

// rig is one set-up server: listener, serve loop and, for the durable
// workload, its manager and data directory.
type rig struct {
	srv    *server.Server
	obs    *obs.Obs
	dm     *durable.Manager
	dir    string
	addr   string
	cancel context.CancelFunc
	served chan error
	// warmCycles is the mean simulated accelerator cycles of the warm-up
	// refresh scans: fixed inputs, so it must repeat exactly.
	warmCycles float64
}

// setUp is what setup_s times: durable.Open, server.New, every Register,
// and the warm-up scans that finish lazy page encoding (and refresh every
// pair once, so STATS has something to serve).
func (w *workload) setUp(dir string, ckpt time.Duration, chk *checker) (*rig, error) {
	r := &rig{obs: obs.New()}
	cfg := server.Config{Obs: r.obs}
	if w.durable {
		r.dir = dir
		dm, err := durable.Open(dir, durable.Options{CheckpointInterval: ckpt, Reg: r.obs.Registry()})
		if err != nil {
			return nil, fmt.Errorf("durable open: %w", err)
		}
		r.dm = dm
		cfg.Durable = dm
	}
	r.srv = server.New(cfg)
	for _, t := range w.tables {
		if err := r.srv.Register(t.current().rel); err != nil {
			r.tearDown()
			return nil, fmt.Errorf("register %s: %w", t.name, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.tearDown()
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.addr = ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ctx, ln) }()

	c, err := client.Dial(r.addr)
	if err != nil {
		r.tearDown()
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	var cycles float64
	for _, p := range w.pairs {
		sum, ok := chk.scan(c, p.t, p.column, nil)
		if !ok {
			r.tearDown()
			return nil, fmt.Errorf("warm-up scan of %s.%s failed: %s", p.t.name, p.column, chk.firstErr())
		}
		cycles += float64(sum.AccelCycles)
	}
	r.warmCycles = cycles / float64(len(w.pairs))
	return r, nil
}

// tearDown stops the server and closes the durable manager. It returns
// every error other than the expected ErrServerClosed. Calling it again is
// a no-op.
func (r *rig) tearDown() error {
	var errs []error
	if r.cancel != nil {
		r.cancel()
		if err := <-r.served; err != nil && !errors.Is(err, server.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
		r.cancel = nil
	}
	if r.dm != nil {
		if err := r.dm.Close(); err != nil {
			errs = append(errs, fmt.Errorf("durable close: %w", err))
		}
		r.dm = nil
	}
	return errors.Join(errs...)
}
