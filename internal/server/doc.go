// Package server turns the library's in-process data path into a network
// service: histserved, a TCP scan server that computes histograms as a side
// effect of serving pages.
//
// The subsystem is Figure 9 of the paper stretched over a real wire. The
// roles map one to one:
//
//   - Storage is the registered relation's encoded page images
//     (internal/page), exposed as one byte stream by stream.PagesReader —
//     the same bytes the in-process DataPath reads.
//   - The Splitter is the scan loop: every page frame is one vector of
//     storage's own page images (sent with writev on a socket), and the
//     same frame enters a fixed-depth side channel — by reference when no
//     fault point can alter it, as a copy otherwise. The relay path does
//     no transformation — the client receives storage's bytes, byte for
//     byte.
//   - The statistical circuit is the drain worker behind the channel: the
//     Parser FSM extracts the requested column from the copied page bytes
//     and the cycle-accounted Binner bin-sorts it (internal/core), exactly
//     as stream.Tap does in-process.
//   - The host is the client (internal/client): it consumes raw pages with
//     only framing added, and can fetch the by-product — the freshest
//     hist.Histogram — with a STATS request answered straight from the
//     dbms.Catalog the server refreshes on every served scan.
//
// Concurrency model. Each connection gets a goroutine running a
// request/response loop with idle and write deadlines. Each scan's side
// path takes a slot from a bounded drain-worker pool; within a scan, the
// fixed-depth channel applies backpressure so memory stays bounded while
// the refreshed histogram stays complete. When the pool is saturated the
// scan fails open — pages stream at full speed and only the statistics
// refresh is skipped — preserving the paper's §4 invariant that the
// accelerator must never slow the regular flow of data. Graceful shutdown
// closes listeners, lets in-flight requests finish, and reaps idle
// connections.
package server
