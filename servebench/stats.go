package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

// minTail is the sample-count rule for latency percentiles: a percentile is
// reportable only when at least this many samples lie beyond it, so p90
// needs 100 samples and p99 needs 1000.
const minTail = 10

// rank is the 1-based nearest-rank position of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of vals.
// vals need not be sorted; it is not modified. An empty input yields NaN.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the 50th percentile with the midpoint convention for even
// counts, so a median of per-window rates is not biased toward the lower one.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reportable says whether percentile p of n samples has at least minTail
// samples beyond it.
func reportable(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validName checks a metric or workload name: a letter or digit first, then
// at most 63 more of letters, digits, '_', '.' and '-'.
func validName(s string) bool { return metricName.MatchString(s) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Spec mirrors BENCHMARK.json, the declaration of workloads and metrics the
// benchmark's output is checked against.
type Spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []SpecLoad    `json:"workloads"`
	EndToEnd   []SpecMetric  `json:"end_to_end"`
	PerLayer   []SpecLayered `json:"per_layer"`
}

type SpecLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type SpecLayered struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// loadSpec reads and validates a BENCHMARK.json.
func loadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *Spec) validate() error {
	seen := map[string]bool{}
	name := func(n string) error {
		if !validName(n) {
			return fmt.Errorf("invalid name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	better := func(b string) error {
		if b != "lower" && b != "higher" {
			return fmt.Errorf("better must be lower or higher, not %q", b)
		}
		return nil
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2..8", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		return fmt.Errorf("%d end_to_end metrics, want 1..16", len(s.EndToEnd))
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitName.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
		}
		if err := better(m.Better); err != nil {
			return fmt.Errorf("metric %s: %w", m.Name, err)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s in s, lower is better")
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		return fmt.Errorf("%d per_layer metrics, want 1..128", len(s.PerLayer))
	}
	for _, m := range s.PerLayer {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitName.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
		}
		if err := better(m.Better); err != nil {
			return fmt.Errorf("metric %s: %w", m.Name, err)
		}
	}
	return nil
}
