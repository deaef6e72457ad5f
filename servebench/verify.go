package main

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/durable"
	"streamhist/internal/server"
)

// checker is the correctness gate. Every operation the benchmark issues goes
// through it; each failed check counts once in failed, and any failure makes
// the run exit non-zero.
type checker struct {
	w         *workload
	attempted atomic.Int64
	failed    atomic.Int64
	// delivered counts page bytes written to sinks; the sampler reads it.
	delivered atomic.Int64

	mu   sync.Mutex
	errs []string
}

const keepErrs = 8

func (k *checker) fail(format string, args ...any) {
	k.failed.Add(1)
	k.mu.Lock()
	if len(k.errs) < keepErrs {
		k.errs = append(k.errs, fmt.Sprintf(format, args...))
	}
	k.mu.Unlock()
}

func (k *checker) firstErr() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.errs) == 0 {
		return ""
	}
	return k.errs[0]
}

// sink digests the delivered page bytes. With timed set it also records
// when the first and last page bytes arrived and how long Write took.
type sink struct {
	crc       uint32
	n         int64
	delivered *atomic.Int64

	timed       bool
	first, last time.Time
	inWrite     time.Duration
}

func (s *sink) Write(p []byte) (int, error) {
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
		if s.first.IsZero() {
			s.first = t0
		}
	}
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.n += int64(len(p))
	s.delivered.Add(int64(len(p)))
	if s.timed {
		s.last = time.Now()
		s.inWrite += s.last.Sub(t0)
	}
	return len(p), nil
}

// scan runs one scan into sk (a fresh untimed sink when nil) and checks it:
// the sink bytes must match the digest of a version of the table that was
// registered, or being registered, while the scan ran, and a refresh must come back Refreshed and
// not Degraded, having binned every row.
func (k *checker) scan(c *client.Client, t *tableSet, column string, sk *sink) (*client.ScanSummary, bool) {
	if sk == nil {
		sk = &sink{delivered: &k.delivered}
	}
	k.attempted.Add(1)
	// The server may deliver any version installed when the scan started
	// or whose Register began before it ended.
	before := t.regs.Load()
	sum, err := c.Scan(t.name, column, sk)
	after := t.begun.Load()
	if err != nil {
		k.fail("scan %s.%q: %v", t.name, column, err)
		return nil, false
	}
	if sum.Bytes != uint64(sk.n) {
		k.fail("scan %s.%q: summary says %d bytes, sink got %d", t.name, column, sum.Bytes, sk.n)
		return sum, false
	}
	if after-before >= int64(len(t.versions)) {
		after = before + int64(len(t.versions)) - 1
	}
	var served *version
	for r := before; r <= after; r++ {
		if v := t.at(r); v.size == sk.n && v.digest == sk.crc {
			served = v
			break
		}
	}
	if served == nil {
		k.fail("scan %s.%q: %d delivered bytes match no registered version's page images", t.name, column, sk.n)
		return sum, false
	}
	if column != "" {
		if !sum.Refreshed || sum.Degraded {
			k.fail("scan %s.%q: refreshed=%v degraded=%v", t.name, column, sum.Refreshed, sum.Degraded)
			return sum, false
		}
		if sum.Rows != uint64(served.rel.NumRows()) {
			k.fail("scan %s.%q: binned %d rows of %d", t.name, column, sum.Rows, served.rel.NumRows())
			return sum, false
		}
	}
	return sum, true
}

// stats reads a column's catalog entry. It must decode, be undegraded and
// cover the whole table; for a table that is never re-registered it must
// also equal the oracle histogram.
func (k *checker) stats(c *client.Client, t *tableSet, column string) bool {
	k.attempted.Add(1)
	st, err := c.Stats(t.name, column)
	if err != nil {
		k.fail("stats %s.%s: %v", t.name, column, err)
		return false
	}
	rows := int64(t.versions[0].rel.NumRows())
	if st.Histogram == nil || st.Histogram.Degraded || st.RowCount != rows {
		k.fail("stats %s.%s: degraded or short entry (rows %d of %d)", t.name, column, st.RowCount, rows)
		return false
	}
	if len(t.versions) == 1 {
		return k.matchesOracle(st, t.versions[0], column)
	}
	return true
}

func (k *checker) matchesOracle(st *client.Stats, v *version, column string) bool {
	ref, rows, err := k.w.reference(v, column)
	if err != nil {
		k.fail("oracle %s.%s: %v", v.rel.Name, column, err)
		return false
	}
	if !st.Histogram.Equal(ref) || st.RowCount != rows || st.NDistinct != ref.DistinctTotal {
		k.fail("stats %s.%s: served histogram differs from the in-process data path", v.rel.Name, column)
		return false
	}
	return true
}

// register installs the table's next pre-generated version and returns how
// long srv.Register took. The table lock only orders concurrent registers of
// one table; it is taken before the clock starts.
func (k *checker) register(srv *server.Server, t *tableSet) time.Duration {
	k.attempted.Add(1)
	t.mu.Lock()
	next := t.regs.Load() + 1
	t.begun.Store(next)
	start := time.Now()
	err := srv.Register(t.at(next).rel)
	d := time.Since(start)
	if err == nil {
		t.regs.Store(next)
	} else {
		t.begun.Store(next - 1)
	}
	t.mu.Unlock()
	if err != nil {
		k.fail("register %s: %v", t.name, err)
	}
	return d
}

// final runs once the clients have stopped: every pair gets a quiescent
// refresh of the last registered version, and its STATS must then equal the
// oracle's histogram with matching row count and distinct count. A durable
// server must have dropped no WAL record.
func (k *checker) final(c *client.Client, dm *durable.Manager) {
	for _, p := range k.w.pairs {
		if _, ok := k.scan(c, p.t, p.column, nil); !ok {
			continue
		}
		k.attempted.Add(1)
		st, err := c.Stats(p.t.name, p.column)
		if err != nil {
			k.fail("final stats %s.%s: %v", p.t.name, p.column, err)
			continue
		}
		k.matchesOracle(st, p.t.current(), p.column)
	}
	if dm != nil {
		k.attempted.Add(1)
		if n := dm.Dropped(); n != 0 {
			k.fail("durable manager dropped %d WAL records", n)
		}
	}
}
