package bench

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distsample"
	"repro/internal/sparse"
)

// VerifyRow is one equivalence check outcome.
type VerifyRow struct {
	Check string
	Pass  bool
	Note  string
}

// Verify runs the headline correctness properties as an executable
// checklist: every distributed sampling algorithm must produce results
// identical to the serial bulk sampler, bit for bit. This is what
// justifies reading the simulated timings as measurements of the same
// computation the paper runs. It prints every check, then returns an
// error naming the ones that failed.
func Verify(w io.Writer, o Options) ([]VerifyRow, error) {
	d, err := datasets.ByName("products", o.Profile)
	if err != nil {
		return nil, err
	}
	a := d.Graph.Adj
	batches := d.Batches()
	if len(batches) > 8 {
		batches = batches[:8]
	}
	var rows []VerifyRow
	add := func(check string, pass bool, note string) {
		rows = append(rows, VerifyRow{Check: check, Pass: pass, Note: note})
		status := "PASS"
		if !pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%-48s %s %s\n", check, status, note)
	}

	sameBulk := func(x, y *core.BulkSample) bool {
		if len(x.Layers) != len(y.Layers) {
			return false
		}
		for l, xl := range x.Layers {
			yl := y.Layers[l]
			if !sparse.Equal(xl.Adj, yl.Adj) || !slices.Equal(xl.Cols.Vertices, yl.Cols.Vertices) ||
				!slices.Equal(xl.Cols.BatchPtr, yl.Cols.BatchPtr) {
				return false
			}
		}
		return true
	}

	// run samples the batches with s on a 4-rank cluster — replicated
	// when c is 0, else 1.5D partitioned over a 4/c × c grid — and
	// returns every rank's result.
	const p = 4
	run := func(s core.Sampler, sizes []int, c int, aware bool) ([]*core.BulkSample, error) {
		cl := cluster.New(p, o.Model)
		var g *cluster.Grid
		var set []*distsample.Partitioned
		if c > 0 {
			g = cluster.NewGrid(cl, p, c)
			set = distsample.NewPartitionedSet(g, a, aware)
		}
		results := make([]*core.BulkSample, p)
		_, err := cl.Run(func(r *cluster.Rank) error {
			if c > 0 {
				results[r.ID] = distsample.SamplePartitioned(r, set[r.ID], s, distsample.LocalBatches(g, r.ID, batches), sizes, o.Seed)
			} else {
				results[r.ID] = distsample.SampleReplicated(r, s, a, distsample.ReplicatedBatches(p, r.ID, batches), sizes, o.Seed)
			}
			return nil
		})
		if err == nil && set != nil {
			distsample.ReleasePartitionedSet(set)
		}
		return results, err
	}
	same := func(x, y []*core.BulkSample) bool {
		for i := range x {
			if !sameBulk(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	// equalsSerial compares every rank's result with the serial bulk
	// sampler on that rank's batches.
	equalsSerial := func(s core.Sampler, sizes []int, dist []*core.BulkSample) bool {
		serial := make([]*core.BulkSample, len(dist))
		for rank, b := range dist {
			serial[rank] = core.SampleBulk(s, a, b.Batches, sizes, o.Seed)
		}
		return same(dist, serial)
	}
	sizesOf := func(s core.Sampler) []int { return core.LayerSizes(s, d.Fanouts, d.LayerWidth, 0) }
	label := func(s core.Sampler) string { return reflect.TypeOf(s).Name() } // SAGE, LADIES, FastGCN

	// The replicated driver only forwards to Step, so the default
	// sampler stands for all there; partitioned, every sampler of the
	// table runs its own BuildQ and Norm through the 1.5D SpGEMM.
	def := core.Samplers[0].New(d.Graph)
	defSizes := sizesOf(def)
	rep, err := run(def, defSizes, 0, false)
	if err != nil {
		return nil, err
	}
	add("replicated "+label(def)+" == serial bulk", equalsSerial(def, defSizes, rep), "(p=4)")
	for _, entry := range core.Samplers {
		s := entry.New(d.Graph)
		part, err := run(s, sizesOf(s), 2, true)
		if err != nil {
			return nil, err
		}
		add("partitioned "+label(s)+" == serial bulk", equalsSerial(s, sizesOf(s), part), "(p=4 c=2)")
	}
	aware, err := run(def, defSizes, 2, true)
	if err != nil {
		return nil, err
	}
	obliv, err := run(def, defSizes, 2, false)
	if err != nil {
		return nil, err
	}
	add("sparsity-aware == oblivious 1.5D", same(aware, obliv), "(p=4 c=2)")
	return rows, failedChecks(rows)
}

// failedChecks returns an error naming every check of rows that failed,
// or nil when all passed.
func failedChecks(rows []VerifyRow) error {
	var failed []string
	for _, r := range rows {
		if !r.Pass {
			failed = append(failed, r.Check)
		}
	}
	if failed == nil {
		return nil
	}
	return fmt.Errorf("verify: %d of %d checks failed: %s", len(failed), len(rows), strings.Join(failed, "; "))
}
