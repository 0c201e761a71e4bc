package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// TestSpecReplaysItsRun: every spec fig4, overlap, contention and
// scaling run survives encoding/json unchanged, and its decoded form,
// run on its own, yields a Result deeply equal to the one runSpecs
// hands back for the spec in its list. So the JSON key runSpecs skips
// duplicates by describes the whole run, and every row reads its own
// run.
func TestSpecReplaysItsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every spec of four experiments")
	}
	var specs []Spec
	specsHook = func(s []Spec) { specs = append(specs, s...) }
	defer func() { specsHook = nil }()
	o := Options{Profile: datasets.Tiny, GPUCounts: []int{8, 16}, MaxBatches: 2, Seed: 1}
	for _, id := range []string{"fig4", "overlap", "contention", "scaling"} {
		e, err := Select(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e[0].Run(io.Discard, o); err != nil {
			t.Fatal(err)
		}
	}
	specsHook = nil
	if len(specs) == 0 {
		t.Fatal("the experiments ran no spec")
	}

	runs, err := runSpecs(specs, result)
	if err != nil {
		t.Fatal(err)
	}
	errs := runCells(len(specs), runtime.GOMAXPROCS(0), func(i int) error {
		data, err := json.Marshal(specs[i])
		if err != nil {
			return err
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			return err
		}
		if !reflect.DeepEqual(back, specs[i]) {
			return fmt.Errorf("spec %s decodes to another spec:\n%+v\n%+v", data, back, specs[i])
		}
		d, err := datasets.ByName(back.Dataset, back.Profile)
		if err != nil {
			return err
		}
		res, err := pipeline.Run(d, back.Config)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res, runs[i]) {
			return fmt.Errorf("spec %s replays to another result", data)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestRunSpecsRunsADuplicateOnce: a spec listed twice runs once, and
// both entries read that run; a spec that differs in any field runs on
// its own.
func TestRunSpecsRunsADuplicateOnce(t *testing.T) {
	o := Options{Profile: datasets.Tiny, MaxBatches: 1, Seed: 1}
	a := o.spec("products", pipeline.Config{P: 4, C: 2})
	b := a
	b.Config.Seed++
	named := a
	named.Name = "a name is no part of the run"
	runs, err := runSpecs([]Spec{a, b, a, named}, result)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] != runs[2] || runs[0] != runs[3] {
		t.Error("a duplicated spec ran more than once")
	}
	if runs[0] == runs[1] {
		t.Error("specs with different seeds share a run")
	}
	if runs[0].Cfg.Seed != a.Config.Seed || runs[1].Cfg.Seed != b.Config.Seed {
		t.Error("a spec reads another spec's run")
	}
}
