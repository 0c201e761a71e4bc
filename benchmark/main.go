// Command benchmark is the repository's performance instrument: five
// named workloads, eight end-to-end metrics with regression bounds, and
// a separate traced run that attributes host time to layers. See
// README.md; BENCHMARK.json at the repository root names the workloads
// and metrics this program emits.
//
//	go run -C benchmark .                                    # every workload, untraced then traced
//	go run -C benchmark . -workload largep-des -trace 1      # one run, result as the last stdout line
//	go run -C benchmark . -compare a.json b.json             # verdict per workload × metric
package main

import (
	"bytes"
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

const (
	defaultSeed    = 20240101
	defaultSeconds = 9 // BENCHMARK.json's run_seconds
	// setupRuns is how many times an untraced run sets the workload up,
	// each in a fresh process; setup_s is their median.
	setupRuns = 3
)

// hostFacts are recorded in every results file: timings from different
// hosts, core counts or toolchains are not comparable.
type hostFacts struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	DefaultBackend string `json:"default_backend"`
}

func facts() hostFacts {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, DefaultBackend: cluster.DefaultBackend.Resolve().String(),
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload: untraced (end-to-end metrics)
// or traced (per-layer metrics).
type runRecord struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      bool                   `json:"trace"`
	Iterations int                    `json:"iterations"`
	WallSpentS float64                `json:"wall_spent_s"`
	Ops        ops                    `json:"ops"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Samples holds the values behind a median the run reports
	// (epoch_wall_s per timed iteration, setup_s per set-up).
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Host hostFacts   `json:"host"`
	Runs []runRecord `json:"runs"`
}

func main() {
	// Two cores at most: the sandbox has two, and a pinned value keeps
	// runs on bigger hosts comparable with it.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	// "Default backend" in the workload table means the zero
	// cluster.Backend, not whatever the caller's shell exports.
	os.Unsetenv(cluster.BackendEnv)

	var (
		workload = flag.String("workload", "", "run this workload only and print its result as the last line (default: all five, untraced then traced)")
		seed     = flag.Int64("seed", defaultSeed, "workload seed: training-set shuffle, model initialisation and sampling")
		seconds  = flag.Float64("seconds", defaultSeconds, "minimum seconds of timed iterations per run (never fewer than 7 iterations)")
		traceRun = flag.Int("trace", 0, "with -workload: 0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		out      = flag.String("out", "", "append the runs to this results file (created if missing)")
		traceOut = flag.String("traceout", "", "Chrome trace-event file of a traced run (default .bench_build/trace-<workload>.json)")
		compare  = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		child    = flag.String("child", "", "internal: run one phase in this process (setup, measure, trace)")
		t0       = flag.Int64("t0", 0, "internal: the parent's clock at child start, Unix ns")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *child != "":
		s, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		runChild(s, *child, *seed, *seconds, time.Unix(0, *t0), *traceOut)
	case *workload != "":
		s, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		if *traceRun != 0 && *traceRun != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traceRun))
		}
		rec := runWorkload(s, *seed, *seconds, *traceRun == 1, *traceOut)
		printRun(os.Stdout, rec)
		if err := save(*out, []runRecord{rec}); err != nil {
			fatal(err)
		}
		if !printResultLine(os.Stdout, rec) {
			os.Exit(1)
		}
	default:
		if !runAll(*seed, *seconds, *out) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runChild is the body of a re-executed child: one phase of one
// workload, its result as one JSON line on stdout. start is the parent's
// clock just before it started this process, so set-up time includes
// process start.
func runChild(s spec, kind string, seed int64, seconds float64, start time.Time, traceOut string) {
	var v any
	switch kind {
	case "setup":
		v = measureSetup(s, seed, start)
	case "measure":
		v = measure(s, seed, seconds, start, func() (p measured, err error) {
			return p, spawn(s, "setup", seed, seconds, "", &p)
		})
	case "trace":
		v = trace(s, seed, traceOut)
	default:
		fatal(fmt.Errorf("unknown child phase %q", kind))
	}
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		fatal(err)
	}
}

// spawn re-executes this program for one phase of a workload and decodes
// the JSON line it prints. Each phase gets its own process so that
// set-up cost, heap growth and peak RSS belong to that workload alone.
func spawn(s spec, kind string, seed int64, seconds float64, traceOut string, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-child", kind, "-workload", s.name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-traceout", traceOut, "-t0", strconv.FormatInt(now().UnixNano(), 10))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// A child must not outlive a parent that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child of %s: %w", kind, s.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], v); err != nil {
		return fmt.Errorf("%s child of %s: bad result line: %w", kind, s.name, err)
	}
	return nil
}

// runWorkload makes one run of a workload, traced or untraced, in a
// process of its own.
func runWorkload(s spec, seed int64, seconds float64, traced bool, traceOut string) runRecord {
	rec := runRecord{Workload: s.name, Seed: seed, Trace: traced}
	start := now()
	if traced {
		if traceOut == "" {
			traceOut = filepath.Join(".bench_build", "trace-"+s.name+".json")
		}
		var tr tracedRun
		rec.Ops.do("traced run", func() error { return spawn(s, "trace", seed, seconds, traceOut, &tr) })
		rec.Ops.add(tr.Ops)
		rec.setMetrics(perLayer, tr.Metrics)
	} else {
		var m measured
		rec.Ops.do("untraced run", func() error { return spawn(s, "measure", seed, seconds, "", &m) })
		rec.Ops.add(m.Ops)
		rec.setUntraced(m)
	}
	rec.WallSpentS = now().Sub(start).Seconds()
	return rec
}

// setUntraced records an untraced run's metrics and the samples behind
// its medians.
func (rec *runRecord) setUntraced(m measured) {
	rec.Iterations = m.Iterations
	rec.Samples = map[string][]float64{"setup_s": m.SetupSamples, "epoch_wall_s": m.EpochWalls}
	rec.setMetrics(endToEnd, m.Metrics)
}

// setMetrics records values under their declared units. The declared
// list and the emitted set must match exactly: a missing, non-finite or
// undeclared metric fails the run.
func (rec *runRecord) setMetrics(defs []metricDef, values map[string]float64) {
	rec.Metrics = map[string]metricValue{}
	rec.Ops.do("metrics", func() error {
		var err error
		declared := map[string]bool{}
		for _, d := range defs {
			declared[d.Name] = true
			v, ok := values[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				err = errors.Join(err, fmt.Errorf("%s is missing or not finite", d.Name))
				continue
			}
			rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
		for name := range values {
			if !declared[name] {
				err = errors.Join(err, fmt.Errorf("%s is emitted but not declared", name))
			}
		}
		return err
	})
}

func (o *ops) add(c ops) {
	o.Attempted += c.Attempted
	o.Failed += c.Failed
	for _, f := range c.Failures {
		if len(o.Failures) < 8 {
			o.Failures = append(o.Failures, f)
		}
	}
}

// printResultLine prints the machine-readable result of a run as one
// JSON object — the last line of a -workload run's standard output.
func printResultLine(w io.Writer, rec runRecord) bool {
	correct := rec.Ops.Failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(rec.Ops.Attempted, 1), rec.Ops.Failed, rec.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
	return correct
}

// printRun prints a run's metrics by name with unit and, for end-to-end
// metrics, the regression bound.
func printRun(w io.Writer, rec runRecord) {
	kind, defs := "untraced", endToEnd
	if rec.Trace {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s · %s run · seed %d · ", rec.Workload, kind, rec.Seed)
	if !rec.Trace {
		fmt.Fprintf(w, "%d timed iterations · ", rec.Iterations)
	}
	fmt.Fprintf(w, "%.1fs wall · ops %d attempted, %d failed\n", rec.WallSpentS, rec.Ops.Attempted, rec.Ops.Failed)
	for _, f := range rec.Ops.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, d := range defs {
		mv, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-38s %16.9g %-10s", d.Name, mv.Value, d.Unit)
		if !rec.Trace {
			fmt.Fprintf(w, " %s is better, bound %.0f%%", d.Better, d.Bound*100)
			if xs := rec.Samples[d.Name]; len(xs) > 1 {
				q1, q3 := quartiles(xs)
				fmt.Fprintf(w, " · median of %d, quartiles %.6g–%.6g", len(xs), q1, q3)
			}
		}
		fmt.Fprintln(w)
	}
}

// save appends runs to the results file at path (no-op when empty).
func save(path string, runs []runRecord) error {
	if path == "" {
		return nil
	}
	var f resultsFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Host = facts()
	f.Runs = append(f.Runs, runs...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll is the one-command mode: every workload untraced, then traced,
// every metric printed by name, outputs checked. It reports whether
// every op of every run succeeded.
func runAll(seed int64, seconds float64, out string) bool {
	h := facts()
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s default-backend=%s seed=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.DefaultBackend, seed)
	var runs []runRecord
	ok := true
	sim := map[string]float64{}
	for _, s := range workloads {
		for _, traced := range []bool{false, true} {
			rec := runWorkload(s, seed, seconds, traced, "")
			printRun(os.Stdout, rec)
			runs = append(runs, rec)
			ok = ok && rec.Ops.Failed == 0
			if !traced {
				sim[s.name] = rec.Metrics["sim_epoch_s"].Value
			}
		}
	}
	if bulk, quiver := sim["replicated-bulk"], sim["quiver-perbatch"]; bulk > 0 && quiver > 0 {
		fmt.Printf("simulated speed-up of bulk sampling over the Quiver baseline: sim_epoch_s(quiver-perbatch) %.6g s / sim_epoch_s(replicated-bulk) %.6g s = %.3fx\n",
			quiver, bulk, quiver/bulk)
		fmt.Println("  (the cost model is unvalidated against hardware: the repository holds no reference measurements, so no error figure is given)")
	}
	if err := save(out, runs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		ok = false
	}
	if ok {
		fmt.Println("benchmark: all outputs correct")
	} else {
		fmt.Println("benchmark: FAILED (see FAILED lines above)")
	}
	return ok
}
