// Command servebench is the repository's benchmark: it starts a
// server.Server in-process on loopback TCP, drives it from closed-loop
// client.Client connections, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) of one
// workload. The last line of its output is one JSON object.
//
//	go run . --workload bulk-move --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"streamhist/internal/client"
	"streamhist/internal/durable"
	"streamhist/internal/obs"
)

// endToEnd are the metrics a user of the server sees, measured with
// tracing off. The bounds are the share of the parent's median by which a
// metric may worsen before a change counts as a regression.
var endToEnd = []SpecMetric{
	{"scan_gbps", "GB/s", "higher", 0.25},
	{"scan_ms_p50", "ms", "lower", 0.25},
	{"scan_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, one or more per layer.
var perLayer = []SpecLayered{
	{"server.readframe_gbps", "GB/s", "higher"},
	{"server.readframe_alloc_bytes_per_frame", "B", "lower"},
	{"server.writeframe_gbps", "GB/s", "higher"},
	{"server.span.stream_self_ms", "ms", "lower"},
	{"server.span.merge_ms", "ms", "lower"},
	{"server.span.install_ms", "ms", "lower"},
	{"server.span.accept_ms", "ms", "lower"},
	{"server.refreshed_ratio", "ratio", "higher"},
	{"server.degraded", "count", "lower"},
	{"server.lanes_retired", "count", "lower"},
	{"server.side_skipped", "count", "lower"},
	{"server.accel_cycles_per_scan", "cycles", "lower"},
	{"client.first_byte_ms_p50", "ms", "lower"},
	{"client.tail_ms_p50", "ms", "lower"},
	{"client.sink_share", "ratio", "lower"},
	{"client.stats_ms_p50", "ms", "lower"},
	{"client.stats_ms_p90", "ms", "lower"},
	{"server.register_ms_p50", "ms", "lower"},
	{"page.encode_ms", "ms", "lower"},
	{"page.checksum_gbps", "GB/s", "higher"},
	{"stream.parallel_gbps", "GB/s", "higher"},
	{"stream.parallel_chain_gbps", "GB/s", "higher"},
	{"core.parser_gbps", "GB/s", "higher"},
	{"core.binner_mvals_per_s", "Mvals/s", "higher"},
	{"core.binner_new_us", "us", "lower"},
	{"core.binner_finish_us", "us", "lower"},
	{"core.binner_merge_us", "us", "lower"},
	{"core.scanner_run_us", "us", "lower"},
	{"core.sim_cycles", "cycles", "lower"},
	{"bins.merge_us", "us", "lower"},
	{"sketch.hll_mvals_per_s", "Mvals/s", "higher"},
	{"sketch.spacesaving_mvals_per_s", "Mvals/s", "higher"},
	{"sketch.window_mvals_per_s", "Mvals/s", "higher"},
	{"sketch.chain_mvals_per_s", "Mvals/s", "higher"},
	{"sketch.merge_us", "us", "lower"},
	{"sketch.encoded_bytes", "B", "lower"},
	{"sketch.sim_cycles", "cycles", "lower"},
	{"hist.build_compressed_us", "us", "lower"},
	{"hist.unmarshal_us", "us", "lower"},
	{"dbms.catalog_put_us", "us", "lower"},
	{"dbms.catalog_get_us", "us", "lower"},
	{"durable.journal_put_us", "us", "lower"},
	{"durable.sync_ms", "ms", "lower"},
	{"durable.checkpoint_ms", "ms", "lower"},
	{"durable.wal_bytes_per_refresh", "B", "lower"},
	{"durable.recovery_ms", "ms", "lower"},
	{"durable.dropped", "count", "lower"},
	{"obs.tracing_overhead_pct", "%", "lower"},
	{"proc.alloc_mb_per_gb", "MB/GB", "lower"},
	{"proc.gc_per_gb", "1/GB", "lower"},
}

// Targets printed beside the derived ratios (ROADMAP); they are not gated.
const (
	freeStatsTarget   = 0.9
	tracingOverheadOK = 5.0
)

// heldOutSeed is the seed a performance claim must also hold on, besides
// the seeds used while the change was written.
const heldOutSeed = 9001

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
	mix      opMix
	sz       sizes
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: bulk-move, bulk-refresh, catalog-churn, or all")
	seed := fs.Uint64("seed", 1, fmt.Sprintf("workload seed (data, op mix, table versions); claims must also hold on %d", heldOutSeed))
	secs := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", filepath.Join(buildDir(), "servebench"), "directory for the spans file, run results and durable data")
	mixArg := fs.String("mix", defaultMix.String(), "catalog-churn's weights of scan, stats and register ops")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mx, err := parseMix(*mixArg)
	if *secs <= 0 || (*trace != 0 && *trace != 1) || err != nil {
		fmt.Fprintln(stderr, "servebench: --seconds must be positive, --trace 0 or 1, and --mix three non-negative weights with a positive scan weight")
		return 2
	}
	o := options{workload: *wl, seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace == 1, out: *out, mix: mx, sz: fullSizes}
	if *wl == "all" {
		return runEach(args, stdout, stderr)
	}
	res, err := runWorkload(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %s: %v\n", o.workload, err)
		return 2
	}
	if err := checkAgainstSpec(res, o.trace); err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 2
	}
	if err := saveResult(o, res); err != nil {
		fmt.Fprintf(stderr, "servebench: saving result: %v\n", err)
	}
	printDerived(o, stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: encoding the result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runEach runs every workload in a process of its own, so that none of them
// reports the peak memory, heap or set-up state another one left behind.
// Each child gets args with its workload appended, which overrides "all".
// It returns the worst exit code.
func runEach(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(args[:len(args):len(args)], "--workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit):
			code = max(code, exit.ExitCode())
		case err != nil:
			fmt.Fprintf(stderr, "servebench: %s: %v\n", w.Name, err)
			return 2
		}
	}
	return code
}

// buildDir is where build and run outputs go: the build-output directory
// CARGO_TARGET_DIR names when set, .bench_build otherwise. run.sh uses the
// same rule.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// checkAgainstSpec makes sure the result reports exactly the metrics that
// BENCHMARK.json declares for this mode, when the file is present.
func checkAgainstSpec(res *result, trace bool) error {
	spec, err := loadSpec("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	want := map[string]string{}
	if trace {
		for _, m := range spec.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range spec.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	if len(want) != len(res.Metrics) {
		return fmt.Errorf("BENCHMARK.json declares %d metrics, the run reported %d", len(want), len(res.Metrics))
	}
	for name, m := range res.Metrics {
		if u, ok := want[name]; !ok || u != m.Unit {
			return fmt.Errorf("metric %s (%s) does not match BENCHMARK.json", name, m.Unit)
		}
	}
	return nil
}

// runWorkload generates the workload, sets the server up several times,
// measures, checks, and returns the result. An error means the harness
// itself could not run; a failed check shows in the result instead.
func runWorkload(o options, stdout io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.seed, o.mix, o.sz)
	if err != nil {
		return nil, err
	}
	return runOn(w, o, stdout)
}

// runOn runs the generated workload w.
func runOn(w *workload, o options, stdout io.Writer) (*result, error) {
	// Oracle histograms of tables that never change are computed up front,
	// so STATS checks during the run cost a comparison only.
	for _, p := range w.pairs {
		if len(p.t.versions) == 1 {
			if _, _, err := w.reference(p.t.versions[0], p.column); err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
		}
	}
	runDir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-pid%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	chk := &checker{w: w}
	ckpt := max(o.seconds/5, 100*time.Millisecond) // several checkpoints per run
	var setups []float64
	var r *rig
	var err error
	for i := 0; i < o.sz.setupReps; i++ {
		runtime.GC()
		start := time.Now()
		r, err = w.setUp(filepath.Join(runDir, fmt.Sprintf("setup%d", i)), ckpt, chk)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < o.sz.setupReps-1 {
			if err := r.tearDown(); err != nil {
				return nil, err
			}
		}
	}
	defer r.tearDown()
	runtime.GC()

	rep := &report{o: o, setupS: median(setups), warmCycles: r.warmCycles}
	if o.trace {
		err = measureTraced(w, r, chk, o, rep)
	} else {
		err = measure(w, r, chk, o, rep)
	}
	if err != nil {
		return nil, err
	}

	c, err := client.Dial(r.addr)
	if err != nil {
		return nil, fmt.Errorf("dial for the final check: %w", err)
	}
	chk.final(c, r.dm)
	c.Close()
	if r.dm != nil {
		rep.dropped = float64(r.dm.Dropped())
	}
	if err := r.tearDown(); err != nil {
		return nil, err
	}

	if o.trace {
		if err := replayLayers(w, r, runDir, rep); err != nil {
			return nil, err
		}
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := writeTrace(path, rep.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.spansPath = path
	}

	res := &result{
		Correct:   chk.failed.Load() == 0,
		Attempted: chk.attempted.Load(),
		Failed:    chk.failed.Load(),
		Metrics:   rep.metrics(),
	}
	rep.print(stdout, res, chk)
	return res, nil
}

// report gathers what a run measured.
type report struct {
	o          options
	setupS     float64
	warmCycles float64

	// end-to-end run
	wins []window
	recs []opRec
	secs float64
	rss  float64

	// traced run
	layer      map[string]float64
	spans      []span
	spansPath  string
	dropped    float64
	selfByName map[string]int64
	statsN     int
	// traced scans whose server spans were joined, of those handed over
	joined, handed int
}

// measure is the end-to-end run: the clients run for the measured seconds
// while a sampler reads the counters; rates are medians over one-second
// windows.
func measure(w *workload, r *rig, chk *checker, o options, rep *report) error {
	ds, err := clientLoops(r, o, false, nil)
	if err != nil {
		return err
	}
	defer closeLoops(ds)
	stop := make(chan struct{})
	got := sampler(chk, stop)
	start := time.Now()
	drive(w, r, chk, ds, start.Add(o.seconds))
	rep.secs = time.Since(start).Seconds()
	close(stop)
	rep.wins = windows(<-got, int(time.Second/sampleEvery))
	rep.rss = peakRSSMB()
	for _, d := range ds {
		rep.recs = append(rep.recs, d.recs...)
	}
	return nil
}

func clientLoops(r *rig, o options, timed bool, col *collector) ([]*clientLoop, error) {
	var ds []*clientLoop
	for i := 0; i < o.sz.clients; i++ {
		d, err := newClientLoop(r.addr, i, subSeed(o.seed, 1000), timed, col)
		if err != nil {
			closeLoops(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

func closeLoops(ds []*clientLoop) {
	for _, d := range ds {
		d.c.Close()
	}
}

// tracedBlocks is how many blocks the traced run alternates between
// untraced and traced clients; their medians give the tracing overhead.
// The order is plain, traced, traced, plain, and again: each kind runs
// first and last equally often, so warm-up and drift do not favour one.
const tracedBlocks = 8

func tracedBlock(i int) bool { return i%4 == 1 || i%4 == 2 }

// measureTraced is the per-layer run. Untraced and traced client sets take
// turns in short blocks, so both see the same machine state; the traced
// clients record the benchmark's op spans and a collector joins the
// server's spans to them. Both sets time their sinks, so the two kinds of
// block differ only in tracing.
func measureTraced(w *workload, r *rig, chk *checker, o options, rep *report) error {
	plain, err := clientLoops(r, o, true, nil)
	if err != nil {
		return err
	}
	defer closeLoops(plain)
	col := newCollector(r.obs.Tracer())
	traced, err := clientLoops(r, o, true, col)
	if err != nil {
		col.close()
		return err
	}
	defer closeLoops(traced)

	m0 := r.srv.Metrics()
	wal0 := walBytes(r.obs.Registry())
	block := o.seconds / tracedBlocks
	var plainGbps, tracedGbps []float64
	var allocBytes, gcs, plainBytes float64
	for i := 0; i < tracedBlocks; i++ {
		ds := plain
		if tracedBlock(i) {
			ds = traced
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		b0, t0 := chk.delivered.Load(), time.Now()
		drive(w, r, chk, ds, t0.Add(block))
		b, secs := float64(chk.delivered.Load()-b0), time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms1)
		if tracedBlock(i) {
			tracedGbps = append(tracedGbps, b/secs/1e9)
			continue
		}
		plainGbps = append(plainGbps, b/secs/1e9)
		allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		gcs += float64(ms1.NumGC - ms0.NumGC)
		plainBytes += b
	}
	col.close()
	m1 := r.srv.Metrics()

	layer := map[string]float64{}
	rep.layer = layer
	var refreshes int64
	for _, d := range append(plain, traced...) {
		for _, rec := range d.recs {
			if rec.kind == opScan && rec.refresh {
				refreshes++
			}
		}
	}
	// Client-side timings come from the untraced blocks.
	var first, tail []float64
	var sinkMS, scanMS float64
	lat := map[opKind][]float64{}
	for _, d := range plain {
		for _, rec := range d.recs {
			lat[rec.kind] = append(lat[rec.kind], rec.ms)
			if rec.kind != opScan {
				continue
			}
			first = append(first, rec.firstByteMS)
			tail = append(tail, rec.tailMS)
			sinkMS += rec.sinkMS
			scanMS += rec.ms
		}
	}
	for _, d := range traced {
		rep.spans = append(rep.spans, d.spans...)
	}
	rep.spans = append(rep.spans, col.spans...)
	rep.statsN = len(lat[opStats])
	rep.joined, rep.handed = col.joined, col.handed
	layer["obs.tracing_overhead_pct"] = (median(plainGbps) - median(tracedGbps)) / median(plainGbps) * 100
	gb := plainBytes / 1e9
	layer["proc.alloc_mb_per_gb"] = allocBytes / (1 << 20) / gb
	layer["proc.gc_per_gb"] = gcs / gb
	layer["client.first_byte_ms_p50"] = median0(first)
	layer["client.tail_ms_p50"] = median0(tail)
	layer["client.sink_share"] = sinkMS / scanMS
	layer["client.stats_ms_p50"] = percentile0(lat[opStats], 50)
	layer["client.stats_ms_p90"] = percentile0(lat[opStats], 90)
	layer["server.register_ms_p50"] = percentile0(lat[opRegister], 50)
	for _, s := range []string{"stream", "merge", "install", "accept"} {
		name := "server.span." + s + "_ms"
		if s == "stream" {
			name = "server.span.stream_self_ms"
		}
		layer[name] = median0(col.serverSpans["server."+s])
	}
	// A workload that attempts no refresh misses none: the ratio reads 1.
	layer["server.refreshed_ratio"] = 1
	if refreshes > 0 {
		layer["server.refreshed_ratio"] = float64(m1.HistogramsRefreshed-m0.HistogramsRefreshed) / float64(refreshes)
	}
	layer["server.degraded"] = float64(m1.ScansDegraded - m0.ScansDegraded)
	layer["server.lanes_retired"] = float64(m1.LanesRetired - m0.LanesRetired)
	layer["server.side_skipped"] = float64(m1.SideSkipped - m0.SideSkipped)
	layer["server.accel_cycles_per_scan"] = rep.warmCycles
	if r.dm != nil && refreshes > 0 {
		layer["durable.wal_bytes_per_refresh"] = (walBytes(r.obs.Registry()) - wal0) / float64(refreshes)
	}
	return nil
}

// percentile0 is the percentile, or 0 for an op kind the workload never
// issues.
func percentile0(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return percentile(v, p)
}

// median0 is the median, or 0 for a layer the workload never reached.
func median0(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func walBytes(reg *obs.Registry) float64 {
	for _, s := range reg.Samples(nil) {
		if s.Name == "streamhist_durable_wal_bytes_total" {
			return s.Value
		}
	}
	return 0
}

// replayBudget bounds the layer replay: it repeats until both the minimum
// iteration count and the time budget are met, or the cap is reached.
const (
	replayMinIters = 3
	replayMaxIters = 40
	replayBudget   = 1500 * time.Millisecond
)

// replayLayers runs the layer replay on the workload's own relation and
// column, then times recovery of the directory the run left (the durable
// workload) or of the replay's own journal.
func replayLayers(w *workload, r *rig, runDir string, rep *report) error {
	t, column := w.pairs[0].t, w.pairs[0].column
	if w.durable {
		column = "l_partkey" // the wide-domain column, where fixed costs show
	}
	reg := obs.NewRegistry()
	dir := filepath.Join(runDir, "replay")
	dm, err := durable.Open(dir, durable.Options{CheckpointInterval: -1, Reg: reg})
	if err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}
	// The first version: the one every run at this seed registered, whatever
	// the interleaving of the clients' writes.
	rp := &replayer{rel: t.versions[0].rel, column: column, dm: dm, samples: map[string][]float64{}}
	start := time.Now()
	for rp.iters < replayMaxIters && (rp.iters < replayMinIters || time.Since(start) < replayBudget) {
		core0, sketch0 := rp.coreCycles, rp.sketchCycles
		if err := rp.once(); err != nil {
			dm.Close()
			return fmt.Errorf("layer replay: %w", err)
		}
		if rp.iters > 1 && (rp.coreCycles != core0 || rp.sketchCycles != sketch0) {
			dm.Close()
			return fmt.Errorf("layer replay: simulated cycles differ between iterations")
		}
	}
	wal := walBytes(reg)
	if err := dm.Close(); err != nil {
		return fmt.Errorf("replay journal close: %w", err)
	}
	layer := rep.layer
	for name, v := range rp.samples {
		layer[name] = median(v)
	}
	layer["core.sim_cycles"] = float64(rp.coreCycles)
	layer["sketch.sim_cycles"] = float64(rp.sketchCycles)
	layer["durable.dropped"] = rep.dropped
	recoverDir := dir
	if w.durable {
		recoverDir = r.dir
	} else {
		layer["durable.wal_bytes_per_refresh"] = wal / float64(rp.iters)
	}
	start = time.Now()
	m, err := durable.Open(recoverDir, durable.Options{CheckpointInterval: -1})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	layer["durable.recovery_ms"] = ms(time.Since(start))
	if err := m.Close(); err != nil {
		return fmt.Errorf("recovery close: %w", err)
	}
	rep.spans = append(rep.spans, rp.spans...)
	rep.selfByName = layerSelf(rep.spans)
	return nil
}

// metrics returns the run's metrics: end-to-end, or per-layer when traced.
func (rep *report) metrics() map[string]metric {
	out := map[string]metric{}
	if rep.o.trace {
		for _, m := range perLayer {
			out[m.Name] = metric{finite(rep.layer[m.Name]), m.Unit}
		}
		return out
	}
	lat := map[opKind][]float64{}
	for _, r := range rep.recs {
		lat[r.kind] = append(lat[r.kind], r.ms)
	}
	var gbps, cpu []float64
	for _, w := range rep.wins {
		gbps = append(gbps, w.bytes/w.secs/1e9)
		cpu = append(cpu, w.cpu/(w.bytes/1e9))
	}
	v := map[string]float64{
		"scan_gbps":    median(gbps),
		"scan_ms_p50":  percentile(lat[opScan], 50),
		"scan_ms_p90":  percentile(lat[opScan], 90),
		"ops_per_s":    float64(len(rep.recs)) / rep.secs,
		"cpu_s_per_gb": median(cpu),
		"rss_peak_mb":  rep.rss,
		"setup_s":      rep.setupS,
	}
	for _, m := range endToEnd {
		out[m.Name] = metric{finite(v[m.Name]), m.Unit}
	}
	return out
}

// finite maps a value with no samples behind it (NaN) to 0, which JSON can
// carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// print writes the human-readable report: every metric by name with its
// unit, sample counts, the correctness gate and, for the traced run, the
// layers' self times.
func (rep *report) print(w io.Writer, res *result, chk *checker) {
	mode := "end-to-end"
	if rep.o.trace {
		mode = "traced per-layer"
	}
	fmt.Fprintf(w, "== %s seed %d, %s run, %v measured\n", rep.o.workload, rep.o.seed, mode, rep.o.seconds)
	if !rep.o.trace {
		n := map[opKind]int{}
		for _, r := range rep.recs {
			n[r.kind]++
		}
		fmt.Fprintf(w, "samples: %d scans, %d stats, %d registers, %d one-second windows\n",
			n[opScan], n[opStats], n[opRegister], len(rep.wins))
		if !reportable(n[opScan], 90) {
			fmt.Fprintf(w, "warning: scan_ms_p90 rests on %d samples; fewer than %d lie beyond it\n", n[opScan], minTail)
		}
	} else if rep.statsN > 0 && !reportable(rep.statsN, 90) {
		fmt.Fprintf(w, "warning: client.stats_ms_p90 rests on %d samples; fewer than %d lie beyond it\n", rep.statsN, minTail)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if rep.o.trace {
		fmt.Fprintf(w, "obs.tracing_overhead_pct %.2f%% (ROADMAP gate: <= %.0f%%)\n", rep.layer["obs.tracing_overhead_pct"], tracingOverheadOK)
		type kv struct {
			k string
			v int64
		}
		var self []kv
		for k, v := range rep.selfByName {
			self = append(self, kv{k, v})
		}
		sort.Slice(self, func(i, j int) bool { return self[i].v > self[j].v })
		fmt.Fprintln(w, "self time by span (all traced ops and the replay):")
		for _, s := range self {
			fmt.Fprintf(w, "  %-36s %12.3f ms\n", s.k, float64(s.v)/1e6)
		}
		fmt.Fprintf(w, "server spans joined for %d of %d traced scans\n", rep.joined, rep.handed)
		fmt.Fprintf(w, "spans: %s (Chrome trace-event JSON; open in ui.perfetto.dev)\n", rep.spansPath)
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "correctness: %d operations and checks attempted, %d failed (failed_op_ratio %.6g)\n", res.Attempted, res.Failed, ratio)
	chk.mu.Lock()
	for _, e := range chk.errs {
		fmt.Fprintf(w, "  FAIL %s\n", e)
	}
	chk.mu.Unlock()
}

// saveResult keeps each run's result so runs of other workloads at the same
// seed can print the cross-workload ratios.
func saveResult(o options, res *result) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, resultName(o.workload, o.seed, o.trace)), raw, 0o644)
}

func resultName(workload string, seed uint64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t)
}

// printDerived prints, after a bulk-refresh run, the ungated "free
// statistics" ratio: its scan_gbps over that of the last bulk-move run at
// the same seed, which `--workload all` runs just before.
func printDerived(o options, w io.Writer) {
	if o.trace || o.workload != bulkRefresh {
		return
	}
	get := func(name string) (float64, bool) {
		raw, err := os.ReadFile(filepath.Join(o.out, "results", resultName(name, o.seed, false)))
		if err != nil {
			return 0, false
		}
		var r result
		if json.Unmarshal(raw, &r) != nil {
			return 0, false
		}
		m, ok := r.Metrics["scan_gbps"]
		return m.Value, ok
	}
	move, ok1 := get(bulkMove)
	refresh, ok2 := get(bulkRefresh)
	if ok1 && ok2 && move > 0 {
		fmt.Fprintf(w, "free statistics ratio (bulk-refresh / bulk-move scan_gbps, seed %d): %.3f (ROADMAP target >= %.1f)\n",
			o.seed, refresh/move, freeStatsTarget)
	}
}
