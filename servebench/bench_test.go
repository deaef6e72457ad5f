package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"streamhist/internal/client"
)

func TestPercentileAndSampleRule(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of an odd count = %v, want 2", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{99, 90, false}, {100, 90, true}, {20, 50, true}, {19, 50, false}, {999, 99, false}, {1000, 99, true}} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "-lead", ".lead", "has space", "slash/no", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"scan_gbps", "server.span.merge_ms", "bulk-move", "9lives", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	for _, m := range perLayer {
		names = append(names, m.Name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !validName(n) || seen[n] {
			t.Errorf("name %q is invalid or repeated", n)
		}
		seen[n] = true
	}
}

// TestBenchmarkJSONRoundTrip checks that the repository's BENCHMARK.json is
// valid, survives a decode/encode round trip, and declares exactly the
// workloads and metrics this command reports.
func TestBenchmarkJSONRoundTrip(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*spec, back) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", *spec, back)
	}
	if !reflect.DeepEqual(spec.Workloads, workloads) {
		t.Errorf("BENCHMARK.json workloads differ from the command's:\n%+v\n%+v", spec.Workloads, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the command's:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the command's")
	}
	var top map[string]json.RawMessage
	raw, _ = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(top))
	}
}

// smallSizes keeps the smoke runs to a second or two each.
var smallSizes = sizes{bigRows: 20_000, smallRows: 2_000, tables: 3, versions: 2, clients: 2, setupReps: 2}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 400 * time.Millisecond, trace: trace, out: t.TempDir(), mix: defaultMix, sz: smallSizes}
}

// TestSmoke runs every workload at reduced size, end to end and traced,
// and requires the correctness gate to pass and every metric to be
// reported. The traced run is made twice: the simulated cycle counts must
// repeat exactly.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(smokeOptions(t, w.Name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			wantMetrics(t, res, len(endToEnd))
			for _, m := range endToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}

			var guards [2][3]float64
			for i := range guards {
				o := smokeOptions(t, w.Name, true)
				res, err := runWorkload(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				wantMetrics(t, res, len(perLayer))
				for j, g := range []string{"core.sim_cycles", "sketch.sim_cycles", "server.accel_cycles_per_scan"} {
					guards[i][j] = res.Metrics[g].Value
					if guards[i][j] <= 0 {
						t.Errorf("%s = %v, want > 0", g, guards[i][j])
					}
				}
				wantTraceFile(t, filepath.Join(o.out, "trace-"+w.Name+"-seed7.json"))
			}
			if guards[0] != guards[1] {
				t.Errorf("simulated cycle counts differ between two runs at one seed: %v vs %v", guards[0], guards[1])
			}
		})
	}
}

func wantMetrics(t *testing.T, res *result, n int) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correctness gate: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != n {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), n)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}

// wantTraceFile checks the spans file is Chrome trace-event JSON holding
// the benchmark's op spans, the server's spans and the layer replay.
func wantTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("spans file is not JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			pids[e.Pid] = true
			if e.Dur < 0 || e.Name == "" {
				t.Errorf("bad span %+v", e)
			}
		}
	}
	for _, p := range []int{pidBench, pidServer, pidReplay} {
		if !pids[p] {
			t.Errorf("spans file has no complete events for pid %d", p)
		}
	}
}

// TestGateCatchesMismatch shows the correctness gate failing: a sink digest
// that matches no registered version, and a STATS answer that differs from
// the oracle, each count as a failed operation.
func TestGateCatchesMismatch(t *testing.T) {
	w, err := newWorkload(bulkMove, 3, defaultMix, smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{w: w}
	r, err := w.setUp(t.TempDir(), time.Second, chk)
	if err != nil {
		t.Fatal(err)
	}
	defer r.tearDown()
	c, err := client.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	big := w.tables[0]
	big.versions[0].digest ^= 1
	if _, ok := chk.scan(c, big, "", nil); ok {
		t.Error("scan with a wrong digest passed the gate")
	}
	big.versions[0].digest ^= 1
	if _, ok := chk.scan(c, big, "", nil); !ok {
		t.Errorf("scan with the right digest failed the gate: %s", chk.firstErr())
	}

	other, _, err := w.reference(big.versions[0], "l_partkey")
	if err != nil {
		t.Fatal(err)
	}
	w.refs[refKey{big.versions[0], "l_quantity"}] = other
	if chk.stats(c, big, "l_quantity") {
		t.Error("STATS differing from the oracle passed the gate")
	}
	if got := chk.failed.Load(); got != 2 {
		t.Errorf("failed = %d, want 2", got)
	}
}

// TestGateRegisterInFlight holds a table in the state a concurrent scan can
// see: the server already serves the next version, but the Register call
// that installs it has not returned yet. A scan of that version must pass
// the gate, and must fail it once no Register of it has begun.
func TestGateRegisterInFlight(t *testing.T) {
	w, err := newWorkload(catalogChurn, 5, defaultMix, smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{w: w}
	r, err := w.setUp(t.TempDir(), time.Second, chk)
	if err != nil {
		t.Fatal(err)
	}
	defer r.tearDown()
	c, err := client.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tb := w.tables[0]
	tb.begun.Store(1) // what register does before calling srv.Register
	if err := r.srv.Register(tb.at(1).rel); err != nil {
		t.Fatal(err)
	}
	if _, ok := chk.scan(c, tb, "l_quantity", nil); !ok {
		t.Errorf("scan of the version being registered failed the gate: %s", chk.firstErr())
	}
	tb.begun.Store(0)
	if _, ok := chk.scan(c, tb, "l_quantity", nil); ok {
		t.Error("scan of a version no Register had begun passed the gate")
	}
	if got := chk.failed.Load(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
}

// TestMix checks the op-mix flag's parsing and that draws follow the
// weights.
func TestMix(t *testing.T) {
	for _, bad := range []string{"", "1,2", "0,1,1", "1,-1,1", "a,b,c"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
	m, err := parseMix(defaultMix.String())
	if err != nil || m != defaultMix {
		t.Fatalf("parseMix(%q) = %v, %v", defaultMix.String(), m, err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	var n [numKinds]int
	for i := 0; i < 10_000; i++ {
		n[m.draw(rng)]++
	}
	for k, w := range m {
		if got, want := float64(n[k])/10_000, float64(w)/10; math.Abs(got-want) > 0.02 {
			t.Errorf("%s drawn %.3f of the time, want %.2f", kindNames[k], got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps a, as parallel lanes do
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "d", ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := layerSelf(append(spans, span{Name: "a", ID: 6, Start: 200, End: 205}))["a"]; got != 25 {
		t.Errorf("self time summed over spans named a = %d, want 25", got)
	}
}
