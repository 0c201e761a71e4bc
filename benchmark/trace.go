package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the harness into a layer's public
// function (or a harness-level grouping of such calls). Times are host
// seconds since the tracer's epoch; CPU is the process CPU consumed
// between start and end.
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	Start  float64
	End    float64
	CPU    float64
}

func (s span) wall() float64 { return s.End - s.Start }

// tracer records spans in memory from the harness's own goroutine; it
// writes nothing until the run is over. Spans nest by call order: the
// innermost open span is the parent of the next one begun.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int     // stack of open span ids
	cpu0  []float64 // CPU reading at each open span's start
}

func newTracer() *tracer { return &tracer{epoch: now()} }

func (t *tracer) begin(name string) int {
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.open = append(t.open, id)
	t.cpu0 = append(t.cpu0, cpuSeconds())
	t.spans[id].Start = now().Sub(t.epoch).Seconds()
	return id
}

func (t *tracer) end(id int) {
	end := now().Sub(t.epoch).Seconds()
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d ended out of order", id))
	}
	t.spans[id].End = end
	t.spans[id].CPU = cpuSeconds() - t.cpu0[n-1]
	t.open, t.cpu0 = t.open[:n-1], t.cpu0[:n-1]
}

// selfTimes returns, per span, its wall and CPU self time: the span's
// own duration minus the part of its interval that its direct children
// cover (the union of their intervals, so overlapping children are not
// subtracted twice), and its CPU minus its direct children's CPU.
func selfTimes(spans []span) (wall, cpu []float64) {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	wall = make([]float64, len(spans))
	cpu = make([]float64, len(spans))
	for _, s := range spans {
		ks := append([]int(nil), kids[s.ID]...)
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, childCPU := 0.0, 0.0
		edge := s.Start // everything before edge is already counted
		for _, k := range ks {
			c := spans[k]
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
			childCPU += c.CPU
		}
		wall[s.ID] = s.wall() - covered
		cpu[s.ID] = s.CPU - childCPU
	}
	return wall, cpu
}

// totals sums spans by name.
type totals struct {
	calls             map[string]int
	wall, cpu         map[string]float64 // whole-span sums
	selfWall, selfCPU map[string]float64
}

func (t *tracer) totals() totals {
	sw, sc := selfTimes(t.spans)
	tt := totals{
		calls: map[string]int{}, wall: map[string]float64{}, cpu: map[string]float64{},
		selfWall: map[string]float64{}, selfCPU: map[string]float64{},
	}
	for _, s := range t.spans {
		tt.calls[s.Name]++
		tt.wall[s.Name] += s.wall()
		tt.cpu[s.Name] += s.CPU
		tt.selfWall[s.Name] += sw[s.ID]
		tt.selfCPU[s.Name] += sc[s.ID]
	}
	return tt
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Span id, parent id and CPU ride in
// args, so the tree can be rebuilt from the file alone.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: s.Start * 1e6, Dur: s.wall() * 1e6, Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "cpu_us": s.CPU * 1e6},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
