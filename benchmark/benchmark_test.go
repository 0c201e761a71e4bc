package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// tinySpecs drive the same run, walk, trace and compare code as the real
// workloads on the Tiny profile; between them they cover the Quiver
// entry point, the partitioned algorithm and the overlapped, contended,
// discrete-event configuration.
var tinySpecs = []spec{
	{name: "tiny-replicated-overlap", dataset: "products", profile: datasets.Tiny, epochs: 2,
		cfg: pipeline.Config{P: 4, C: 2, K: pipeline.KAll, Backend: cluster.DESBackend,
			Topology: cluster.OversubscribedTopology(4), Overlap: true}},
	{name: "tiny-quiver", dataset: "products", profile: datasets.Tiny, epochs: 1, quiver: true,
		cfg: pipeline.Config{P: 4, MaxBatches: 3}},
	{name: "tiny-partitioned", dataset: "protein", profile: datasets.Tiny, epochs: 1,
		cfg: pipeline.Config{P: 4, C: 2, K: pipeline.KAll,
			Algorithm: pipeline.GraphPartitioned, SparsityAware: true}},
}

func TestTinyRunsEmitEveryMetricAndCompare(t *testing.T) {
	dir := t.TempDir()
	// compareFiles walks the normative workload list, so the tiny runs
	// are filed under the real names.
	var runs []runRecord
	for i, s := range tinySpecs {
		m := measure(s, 7, 0, now(), nil)
		rec := runRecord{Workload: workloads[i].name, Seed: 7}
		rec.Ops.add(m.Ops)
		rec.setUntraced(m)
		if rec.Ops.Failed != 0 || m.Iterations != minIters {
			t.Fatalf("%s untraced: %d iterations, ops %+v", s.name, m.Iterations, rec.Ops)
		}

		traceFile := filepath.Join(dir, s.name+".json")
		tr := trace(s, 7, traceFile)
		trec := runRecord{Workload: workloads[i].name, Seed: 7, Trace: true}
		trec.Ops.add(tr.Ops)
		trec.setMetrics(perLayer, tr.Metrics)
		if trec.Ops.Failed != 0 {
			t.Fatalf("%s traced: ops %+v", s.name, trec.Ops)
		}
		if r := tr.Metrics["trace.overhead_ratio"]; r <= 0 {
			t.Errorf("%s: trace.overhead_ratio = %v", s.name, r)
		}
		if s.cfg.Overlap && tr.Metrics["engine.sequential_twin_sim_s"] < rec.Metrics["sim_epoch_s"].Value {
			t.Errorf("%s: sequential twin finishes before the overlapped schedule", s.name)
		}
		var chrome struct {
			TraceEvents []struct {
				Name string
				Args struct{ Parent int }
			}
		}
		data, err := os.ReadFile(traceFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &chrome); err != nil {
			t.Fatalf("trace file: %v", err)
		}
		if len(chrome.TraceEvents) < 20 || chrome.TraceEvents[0].Name != "traced/"+s.name || chrome.TraceEvents[0].Args.Parent != -1 {
			t.Errorf("%s: trace file has %d events, first %+v", s.name, len(chrome.TraceEvents), chrome.TraceEvents[:1])
		}

		var line bytes.Buffer
		if !printResultLine(&line, rec) {
			t.Errorf("%s: result line reports failure", s.name)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line.Bytes(), &got); err != nil || len(got) != 4 {
			t.Errorf("result line %q: %v", line.String(), err)
		}
		runs = append(runs, rec, trec)
	}

	a := filepath.Join(dir, "a.json")
	if err := save(a, runs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := save(a, runs[2:]); err != nil { // appends
		t.Fatal(err)
	}
	// b: the same runs, with one workload's epoch made 30% slower and
	// another's simulated time nudged by one part in a million.
	worse := append([]runRecord(nil), runs...)
	for i := range worse {
		worse[i].Metrics = map[string]metricValue{}
		for k, v := range runs[i].Metrics {
			worse[i].Metrics[k] = v
		}
	}
	scale := func(i int, metric string, by float64) {
		mv := worse[i].Metrics[metric]
		mv.Value *= by
		worse[i].Metrics[metric] = mv
		worse[i].Samples = nil
	}
	scale(0, "epoch_wall_s", 1.3)
	scale(2, "sim_epoch_s", 1+1e-6)
	b := filepath.Join(dir, "b.json")
	if err := save(b, worse); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	ok, err := compareFiles(&out, a, a)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{} // "workload metric" -> verdict
	parse := func() {
		clear(rows)
		for _, ln := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(ln); len(f) > 3 && strings.Contains(ln, "%") {
				rows[f[0]+" "+f[1]] = f[len(f)-1]
			}
		}
	}
	parse()
	// Two of the five workloads have no runs in these files.
	if ok || rows[workloads[0].name+" epoch_wall_s"] == "worse" || rows[workloads[4].name+" setup_s"] != "missing" ||
		len(rows) != len(workloads)*len(endToEnd) {
		t.Errorf("a vs a: ok=%v rows=%v\n%s", ok, rows, out.String())
	}
	out.Reset()
	if _, err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	parse()
	if rows[workloads[0].name+" epoch_wall_s"] != "worse" || rows[workloads[1].name+" sim_epoch_s"] != "worse" ||
		rows[workloads[1].name+" train_loss"] != "ok" {
		t.Errorf("a vs b verdicts: %v\n%s", rows, out.String())
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	tight := func(m float64) side { return side{values: []float64{m * 0.99, m, m, m, m * 1.01}} }
	wide := func(m float64) side { return side{values: []float64{m * 0.7, m * 0.8, m, m * 1.2, m * 1.3}} }
	cases := []struct {
		d    metricDef
		a, b side
		want string
	}{
		{lower, tight(1), tight(1.05), "ok"},
		{lower, tight(1), tight(1.2), "worse"},
		{lower, tight(1), tight(0.5), "ok"},
		{higher, tight(1), tight(0.8), "worse"},
		{higher, tight(1), tight(1.3), "ok"},
		{lower, wide(1), tight(1), "unresolved"},
		{lower, tight(1), wide(1), "unresolved"},
		{lower, tight(1), side{}, "missing"},
	}
	for i, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) on the same values.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{3, 1, 7}, 1, 7},
		{[]float64{5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 10, CPU: 8},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4, CPU: 2},
		{ID: 2, Parent: 0, Name: "b", Start: 3, End: 6, CPU: 3},  // overlaps a: covered once
		{ID: 3, Parent: 2, Name: "c", Start: 4, End: 5, CPU: 1},  // grandchild: not root's to subtract
		{ID: 4, Parent: 0, Name: "d", Start: 9, End: 12, CPU: 1}, // clipped to the parent's end
	}
	wall, cpu := selfTimes(spans)
	wantWall := []float64{10 - (5 + 1), 3, 2, 1, 3}
	wantCPU := []float64{8 - 6, 2, 2, 1, 1}
	for i := range spans {
		if math.Abs(wall[i]-wantWall[i]) > 1e-12 || math.Abs(cpu[i]-wantCPU[i]) > 1e-12 {
			t.Errorf("span %s: self wall %v cpu %v, want %v %v", spans[i].Name, wall[i], cpu[i], wantWall[i], wantCPU[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	a := tr.begin("a")
	tr.end(a)
	b := tr.begin("b")
	tr.end(b)
	tr.end(root)
	if tr.spans[a].Parent != root || tr.spans[b].Parent != root || tr.spans[root].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	tt := tr.totals()
	if tt.calls["a"] != 1 || tt.selfWall["root"] > tt.wall["root"] || tt.selfWall["root"] < 0 {
		t.Errorf("totals: %+v", tt)
	}
}

// benchmarkJSON mirrors BENCHMARK.json's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode: every workload and metric BENCHMARK.json
// names is emitted by the code under the same unit, direction and bound,
// and the code emits nothing it does not name.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code (2–8 allowed)", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code (≤16 allowed)", len(bj.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, d := range endToEnd {
		name(d.Name)
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, j, d)
		}
		if !unitRe.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit, direction or bound: %+v", d.Name, d)
		}
		maxBound = max(maxBound, d.Bound)
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != maxBound {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound: %+v", s)
	}

	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code (≤128 allowed)", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.Name)
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, j, d)
		}
		if !unitRe.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: bad unit or direction: %+v", d.Name, d)
		}
	}

	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Command) != 2 || bj.Command[0] != "bash" || bj.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", bj.Command)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}
