// Package cliutil holds the flag-parsing helpers shared by the CLI
// binaries (trainer, gnnbench, perfdiff, gnnvet), so -profile accepts
// one vocabulary everywhere and the validation is tested in one place
// instead of re-implemented per main package. The
// platform flags (collective algorithms, topology, faults,
// checkpoint interval) are declared once and parsed into one
// cluster.CostModel, by RegisterPlatformFlags; this package's tests pin
// the accept/reject tables of the cluster parsers behind them alongside
// the local helpers so the whole shared flag surface has one
// conformance suite.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/datasets"
)

// ParseFlags parses args into fs (built with flag.ContinueOnError) the
// way every binary's run(args, stdout, stderr) does: usage and parse
// errors print to stderr, and -h reports help with a nil error, the
// usage already printed. A caller returns err when either is set.
func ParseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) (help bool, err error) {
	fs.SetOutput(stderr)
	err = fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return true, nil
	}
	return false, err
}

// ParseProfile maps a -profile flag value to a dataset size tier.
func ParseProfile(s string) (datasets.Profile, error) {
	switch s {
	case "tiny":
		return datasets.Tiny, nil
	case "small":
		return datasets.Small, nil
	case "scale":
		return datasets.Scale, nil
	case "bench":
		return datasets.Bench, nil
	}
	return 0, fmt.Errorf("unknown profile %q (want tiny, small, scale or bench)", s)
}

// ProfileUsage is the shared help text for -profile flags.
const ProfileUsage = "dataset size: tiny, small, scale, bench"

// ParseInts parses a comma-separated integer list (surrounding spaces
// tolerated). An empty string is an error; callers treat "flag unset"
// before calling.
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in list %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseGPUCounts parses a -gpus flag: a comma-separated list of
// distinct, strictly positive simulated GPU counts.
func ParseGPUCounts(s string) ([]int, error) {
	counts, err := ParseInts(s)
	if err != nil {
		return nil, fmt.Errorf("bad GPU count list: %w", err)
	}
	for i, c := range counts {
		if c <= 0 {
			return nil, fmt.Errorf("bad GPU count %d: must be positive", c)
		}
		if slices.Contains(counts[:i], c) {
			return nil, fmt.Errorf("bad GPU count list: %d listed twice", c)
		}
	}
	return counts, nil
}

// ParseFaults parses a -faults flag: a comma-separated list of
// rank@seconds fail-stop events (the canonical FaultPlan.String form,
// surrounding spaces tolerated), e.g. "1@0.5,3@1.25". Empty and
// "default" mean no injection (nil plan). Times must be positive and
// finite; rank range is validated later against the run's cluster size
// (FaultPlan.Validate), since the flag parser does not know p.
func ParseFaults(s string) (*cluster.FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "default" {
		return nil, nil
	}
	var failures []cluster.Failure
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		rankStr, atStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("bad fault %q (want rank@seconds, e.g. 1@0.5)", part)
		}
		rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("bad fault rank %q in %q (want a non-negative integer)", rankStr, part)
		}
		at, err := strconv.ParseFloat(strings.TrimSpace(atStr), 64)
		if err != nil {
			return nil, fmt.Errorf("bad fault time %q in %q (want simulated seconds)", atStr, part)
		}
		if !(at > 0) || math.IsInf(at, 0) {
			return nil, fmt.Errorf("bad fault time %v in %q: must be positive and finite", at, part)
		}
		failures = append(failures, cluster.Failure{Rank: rank, At: at})
	}
	return &cluster.FaultPlan{Failures: failures}, nil
}

// ParseCkptInterval parses a -ckpt-interval flag: checkpoint the
// resumable training state every N completed epochs. Empty, "default"
// and "0" mean no checkpointing (returned as 0); negative and
// non-integer values are rejected.
func ParseCkptInterval(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "default" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad checkpoint interval %q (want a non-negative epoch count or \"default\")", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("bad checkpoint interval %d: must be >= 0 (0 = no checkpoints)", v)
	}
	return v, nil
}

// RegisterPlatformFlags declares -allreduce, -alltoall and -topology on
// fs — plus -faults and -ckpt-interval when withFaults —
// with the shared help texts, each followed by the command's own note
// from notes (keyed by flag name) where it has one. Call the returned
// function after fs.Parse: it assembles the platform the flags describe
// — cluster.Perlmutter() with the parsed selections set on it, the one
// carrier of machine selections above pipeline.Config — and returns it
// with the checkpoint interval (0 unless withFaults).
func RegisterPlatformFlags(fs *flag.FlagSet, withFaults bool, notes map[string]string) func() (model cluster.CostModel, ckptInterval int, err error) {
	str := func(name, def, usage string) *string { return fs.String(name, def, usage+notes[name]) }
	allreduce := str("allreduce", "default", cluster.AllReduceFlagUsage)
	alltoall := str("alltoall", "default", cluster.AllToAllFlagUsage)
	topology := str("topology", "ideal", cluster.TopologyFlagUsage)
	faults, ckpt := new(string), new(string)
	if withFaults {
		faults = str("faults", "default", "fail-stop injection plan: comma-separated rank@seconds events (e.g. 1@0.5,3@1.25)")
		ckpt = str("ckpt-interval", "default", "checkpoint the resumable training state every N completed epochs (0 = off)")
	}
	return func() (m cluster.CostModel, ckptInterval int, err error) {
		m = cluster.Perlmutter()
		if m.Collectives, err = cluster.ParseCollectives(*allreduce, *alltoall); err != nil {
			return m, 0, err
		}
		if m.Topology, err = cluster.ParseTopology(*topology); err != nil {
			return m, 0, err
		}
		if m.Faults, err = ParseFaults(*faults); err != nil {
			return m, 0, err
		}
		ckptInterval, err = ParseCkptInterval(*ckpt)
		return m, ckptInterval, err
	}
}

// RequireExperiment rejects a flag scoped to one experiment when a
// different experiment is selected. Silently ignoring -perfout on a
// scaling run (say) would drop the baseline file the caller asked
// for — contradictory flag combinations are errors, not no-ops. A
// value of "" or "default" counts as unset.
func RequireExperiment(flagName, value, experiment, want string) error {
	if value == "" || value == "default" || experiment == want {
		return nil
	}
	return fmt.Errorf("-%s applies only to -experiment %s (selected: %s)", flagName, want, experiment)
}
