package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"streamhist/internal/obs"
)

// Trace-event process rows.
const (
	pidBench  = 1 // the benchmark's own op spans and the client's reported spans
	pidServer = 2 // spans the server recorded
	pidReplay = 3 // the layer replay
)

// span is one timed interval of the traced run. Spans of one operation
// share Op; Parent links a span to the one that caused it.
type span struct {
	Name   string
	ID     uint64
	Parent uint64
	Op     uint64
	Start  int64 // unix ns
	End    int64
	Pid    int
	Tid    int
	Cycles int64
}

// spanIDs hands out span and op identifiers. The high bit keeps them apart
// from the server's derived span IDs.
var spanIDs atomic.Uint64

func nextID() uint64 { return 1<<63 | spanIDs.Add(1) }

// fromAssembled converts an assembled server trace into spans of op, hanging
// every span whose parent is not in the trace under op's own span.
func fromAssembled(at *obs.AssembledTrace, op uint64, tid int) []span {
	ids := make(map[uint64]bool, len(at.Spans))
	for _, s := range at.Spans {
		if s.SpanID != 0 {
			ids[s.SpanID] = true
		}
	}
	out := make([]span, 0, len(at.Spans))
	for _, s := range at.Spans {
		sp := span{
			Name: s.Source + "." + s.Name, ID: s.SpanID, Parent: s.ParentID, Op: op,
			Start: s.StartNS, End: s.StartNS + s.DurNS, Pid: pidServer, Tid: 0, Cycles: s.HWCycles,
		}
		if sp.ID == 0 {
			sp.ID = nextID()
		}
		if !ids[sp.Parent] {
			sp.Parent = op
		}
		if s.Source == "client" {
			sp.Pid, sp.Tid = pidBench, tid
		} else if s.Lane >= 0 {
			sp.Tid = s.Lane + 1
		}
		out = append(out, sp)
	}
	return out
}

// selfTimes returns each span's duration minus the part of it covered by
// its children, in nanoseconds, keyed by span ID.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		cur := s.Start // covered up to here
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time per span name.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing load. Timestamps are microseconds from the first span.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	self := selfTimes(spans)
	evs := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: pidBench, Args: map[string]any{"name": "servebench clients"}},
		{Name: "process_name", Ph: "M", Pid: pidServer, Args: map[string]any{"name": "histserved"}},
		{Name: "process_name", Ph: "M", Pid: pidReplay, Args: map[string]any{"name": "layer replay"}},
	}
	for _, s := range spans {
		evs = append(evs, traceEvent{
			Name: s.Name, Cat: fmt.Sprintf("op%d", s.Op&^(1<<63)), Ph: "X",
			Ts: float64(s.Start-t0) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Pid, Tid: s.Tid,
			Args: map[string]any{
				"span_id": fmt.Sprintf("%016x", s.ID), "parent_id": fmt.Sprintf("%016x", s.Parent),
				"op": fmt.Sprintf("%016x", s.Op), "self_us": float64(self[s.ID]) / 1e3, "hw_cycles": s.Cycles,
			},
		})
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
