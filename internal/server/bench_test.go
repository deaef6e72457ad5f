package server_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/durable"
	"streamhist/internal/server"
	"streamhist/internal/stream"
)

// BenchmarkServedScanDurable measures what durability costs a served scan
// end to end. "ephemeral" is a server with no durable manager (the
// -no-durability configuration); "durable" journals every catalog mutation
// and scan-lifecycle event through the async WAL while a 50ms background
// checkpointer snapshots the catalog under the serving load — deliberately
// far more aggressive than the 30s production default, so the measured gap
// is an upper bound on the checkpoint + journal overhead; "durable-wal-only"
// disables timed checkpoints to isolate the journaling cost itself. The hot
// path only enqueues; fsync happens on the writer goroutine, yet encoding
// the refreshed statistics into one WAL record per scan still costs: the
// runs recorded in EXPERIMENTS.md put wal-only 14–19% and the checkpointed
// mode 22–27% below ephemeral.
func BenchmarkServedScanDurable(b *testing.B) {
	for _, rows := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchmarkServedScanDurable(b, rows)
		})
	}
}

func benchmarkServedScanDurable(b *testing.B, rows int) {
	rel := testRelation(rows)
	pages, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		// ckpt is the checkpoint interval; 0 means no durable manager at
		// all (the ephemeral baseline).
		ckpt time.Duration
	}{
		{"ephemeral", 0},
		{"durable-wal-only", -1},
		{"durable-ckpt-50ms", 50 * time.Millisecond},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var m *durable.Manager
			if mode.ckpt != 0 {
				var err error
				m, err = durable.Open(b.TempDir(), durable.Options{
					CheckpointInterval: mode.ckpt,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
			}
			srv := server.New(server.Config{Durable: m, PagesPerFrame: 8})
			if err := srv.Register(rel); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			sc, cc := net.Pipe()
			go srv.ServeConn(sc)
			c := client.New(cc)
			defer c.Close()
			b.SetBytes(int64(len(pages)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Scan("synthetic", "c1", io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The journal's per-scan cost is dominated by encoding the refreshed column
// statistics (histogram + sketch chain, tens of KB) into one WAL record —
// fixed per mutation, not per page — so the relative overhead shrinks as
// relations grow; the rows dimension above makes that amortization visible.

// BenchmarkServedScanWire is the served scan's wire path end to end, client
// and server in one process over loopback TCP: "move" scans with no column
// (framing, vectored page writes, client verify and sink; the side path
// never starts), "refresh" refreshes c1 with the default sketch chain
// beside the stream. MB/s is page bytes delivered; allocs/op covers both
// ends, so a per-frame allocation on either side shows up as ~one alloc per
// frame (25 frames per scan here).
func BenchmarkServedScanWire(b *testing.B) {
	rel := testRelation(100_000)
	pages, err := io.ReadAll(stream.NewPagesReader(rel))
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.Register(rel); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx, ln)
	for _, mode := range []struct{ name, column string }{{"move", ""}, {"refresh", "c1"}} {
		b.Run(mode.name, func(b *testing.B) {
			c, err := client.Dial(ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			// One warm-up scan sizes the client's frame buffer and, for
			// refresh, the server's pooled side-path scratch.
			if _, err := c.Scan("synthetic", mode.column, io.Discard); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(pages)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Scan("synthetic", mode.column, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
