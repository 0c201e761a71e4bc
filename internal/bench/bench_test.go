package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datasets"
)

func tinyOpts() Options {
	return Options{
		Profile:   datasets.Tiny,
		GPUCounts: []int{4, 8},
		Seed:      1,
	}
}

func TestTable2Prints(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	out := buf.String()
	for _, sys := range []string{"DistDGL", "Quiver", "This work"} {
		if !strings.Contains(out, sys) {
			t.Fatalf("table 2 missing %q", sys)
		}
	}
}

func TestTable3Stats(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table3(&buf, datasets.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if !(byName["protein"].AvgDeg > byName["products"].AvgDeg &&
		byName["products"].AvgDeg > byName["papers"].AvgDeg) {
		t.Fatalf("density ordering broken: %+v", rows)
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig4(&buf, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 datasets x 2 GPU counts
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 || r.QuiverTotal <= 0 {
			t.Fatalf("non-positive totals: %+v", r)
		}
		if r.Sampling <= 0 || r.FeatureFetch <= 0 || r.Propagation <= 0 {
			t.Fatalf("missing phase: %+v", r)
		}
	}
}

func TestFig4SpeedupAtScale(t *testing.T) {
	// The headline claim: at the larger GPU count the bulk pipeline
	// beats the per-batch Quiver strategy on every dataset.
	var buf bytes.Buffer
	rows, err := Fig4(&buf, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.P >= 8 && r.Speedup <= 1 {
			t.Fatalf("no speedup at scale: %+v", r)
		}
	}
}

func TestFig5UVASlower(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig5(&buf, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.UVATotal <= r.GPUTotal*0.9 {
			t.Fatalf("UVA unexpectedly fast: %+v", r)
		}
	}
}

func TestFig6ReplicationHelpsFetch(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig6(&buf, Options{Profile: datasets.Tiny, GPUCounts: []int{8}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FetchRep >= r.FetchNone {
			t.Fatalf("replication did not reduce fetch: %+v", r)
		}
	}
}

func TestFig7BreakdownsPositive(t *testing.T) {
	var buf bytes.Buffer
	opts := Options{Profile: datasets.Tiny, GPUCounts: []int{4}, Seed: 3}
	for _, sampler := range []string{"sage", "ladies"} {
		rows, err := Fig7(&buf, sampler, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Probability <= 0 || r.Sampling <= 0 || r.Extraction <= 0 {
				t.Fatalf("%s: missing sub-phase: %+v", sampler, r)
			}
			if r.Comm <= 0 {
				t.Fatalf("%s: partitioned sampling must communicate: %+v", sampler, r)
			}
			if r.Comp <= 0 {
				t.Fatalf("%s: computation missing: %+v", sampler, r)
			}
		}
		if sampler == "ladies" {
			for _, r := range rows {
				if r.CPURef <= 0 {
					t.Fatalf("CPU reference missing: %+v", r)
				}
			}
		}
	}
}

func TestAccuracyExperiment(t *testing.T) {
	var buf bytes.Buffer
	d := datasets.SBM(datasets.SBMConfig{
		N: 512, Classes: 4, Features: 8,
		IntraDeg: 10, InterDeg: 2, Noise: 0.5,
		BatchSize: 32, Fanouts: []int{5, 3}, LayerWidth: 32, Seed: 11,
	})
	res, err := Accuracy(&buf, d, Options{Epochs: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy <= res.UntrainedAccuracy {
		t.Fatalf("training did not beat untrained: %+v", res)
	}
	if res.FinalLoss >= res.FirstLoss {
		t.Fatalf("loss did not decrease: %+v", res)
	}
}

func TestTprobModelWithinOrderOfMagnitude(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Tprob(&buf, "products", 4, []int{1, 2}, Options{Profile: datasets.Tiny, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Measured <= 0 || r.Predicted <= 0 {
			t.Fatalf("non-positive entries: %+v", r)
		}
		if r.Ratio < 0.02 || r.Ratio > 50 {
			t.Fatalf("model and measurement diverge beyond order of magnitude: %+v", r)
		}
	}
}

func TestCKHelpers(t *testing.T) {
	if CFor(4) != 1 || CFor(8) != 2 || CFor(128) != 8 {
		t.Fatal("CFor mapping wrong")
	}
	if KFor(4, 100) != 50 || KFor(64, 100) != 0 {
		t.Fatal("KFor mapping wrong")
	}
}

func TestAmortizationMonotone(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Amortization(&buf, "products", []int{1, 2, 4}, Options{Profile: datasets.Tiny, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Bigger bulks amortize kernel launches: time must not increase.
	for i := 1; i < len(rows); i++ {
		if rows[i].SimTime > rows[i-1].SimTime {
			t.Fatalf("amortization not monotone: %+v", rows)
		}
	}
	if rows[0].SimTime <= rows[len(rows)-1].SimTime*1.01 {
		t.Fatalf("no amortization benefit observed: %+v", rows)
	}

	// Bulks at or past the batch count are one whole-epoch bulk: it runs
	// once, labelled all, and no row claims a k the run did not use.
	buf.Reset()
	rows, err = Amortization(&buf, "products", []int{1, 4, 16, 0}, Options{Profile: datasets.Tiny, MaxBatches: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].K != 1 || rows[1].K != 2 {
		t.Fatalf("effective bulk sizes %+v, want k=1 and k=2", rows)
	}
	var labels []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[2:] {
		labels = append(labels, strings.Fields(line)[0])
	}
	if strings.Join(labels, ",") != "1,all" {
		t.Fatalf("printed k column %v, want [1 all]:\n%s", labels, buf.String())
	}
}

func TestPartitionAblation(t *testing.T) {
	var buf bytes.Buffer
	rows, err := PartitionAblation(&buf, "products", []int{8}, Options{Profile: datasets.Tiny, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].OneDBytes <= rows[0].FifteenDBytes {
		t.Fatalf("1D should move more bytes: %+v", rows[0])
	}
	// Algorithm 2 fetches only the rows the local product touches; the
	// oblivious variant broadcasts whole block rows.
	if rows[0].ObliviousBytes <= rows[0].FifteenDBytes || rows[0].ObliviousTime <= 0 {
		t.Fatalf("sparsity-aware 1.5D should move fewer bytes than oblivious: %+v", rows[0])
	}
}

func TestSparsityAblationBytes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := PartitionAblation(&buf, "products", []int{4}, Options{Profile: datasets.Tiny, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].C != 2 {
		t.Fatalf("want one p=4 c=2 row: %+v", rows)
	}
	if rows[0].FifteenDBytes >= rows[0].ObliviousBytes {
		t.Fatalf("sparsity-aware sent more bytes: %+v", rows[0])
	}
}

func TestVerifyAllPass(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Verify(&buf, Options{Profile: datasets.Tiny, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("only %d checks ran", len(rows))
	}
	for _, r := range rows {
		if !r.Pass {
			t.Fatalf("verification failed: %+v\n%s", r, buf.String())
		}
	}
}

func TestOverlapAnalysisBounds(t *testing.T) {
	var buf bytes.Buffer
	rows, err := OverlapAnalysis(&buf, Options{Profile: datasets.Tiny, GPUCounts: []int{4}, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]int{}
	for _, r := range rows {
		algos[r.Algorithm]++
	}
	if algos["replicated"] == 0 || algos["partitioned"] == 0 {
		t.Fatalf("overlap analysis must cover both algorithms: %v", algos)
	}
	for _, r := range rows {
		if r.Overlapped > r.Sequential {
			t.Fatalf("overlap bound above sequential: %+v", r)
		}
		if r.Measured > r.Sequential*1.01 {
			t.Fatalf("measured overlap slower than sequential: %+v", r)
		}
		if r.Measured < r.Overlapped*0.95 {
			t.Fatalf("measured overlap beats the physical bound: %+v", r)
		}
		if r.Speedup < 0.99 || r.Speedup > 2.1 {
			t.Fatalf("overlap speedup out of range: %+v", r)
		}
	}
}

func TestCollectiveSweepMatchesAnalyticBounds(t *testing.T) {
	var buf bytes.Buffer
	rows, err := CollectiveSweep(&buf, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 2 GPU counts x 2 sizes x 9 (op, algorithm) cells.
	if len(rows) != 36 {
		t.Fatalf("got %d rows", len(rows))
	}
	find := func(op, alg string, p, bytes int) CollectiveRow {
		for _, r := range rows {
			if r.Op == op && r.Algorithm == alg && r.P == p && r.Bytes == bytes {
				return r
			}
		}
		t.Fatalf("row %s/%s p=%d bytes=%d missing", op, alg, p, bytes)
		return CollectiveRow{}
	}
	for _, r := range rows {
		if r.Measured <= 0 || r.Predicted <= 0 {
			t.Fatalf("non-positive cell: %+v", r)
		}
		if r.Ratio < 0.99 || r.Ratio > 1.01 {
			t.Fatalf("measured diverges from analytic bound: %+v", r)
		}
	}
	const big, small = 4 << 20, 4 << 10
	// Ring beats the flat tree at large messages (pipelined broadcast).
	if ring, flat := find("broadcast", "ring", 8, big), find("broadcast", "flat", 8, big); ring.Measured >= flat.Measured {
		t.Fatalf("ring broadcast (%v) not faster than flat (%v) at %d bytes", ring.Measured, flat.Measured, big)
	}
	// ...and loses at small ones (p-1 pipeline-fill latencies).
	if ring, flat := find("broadcast", "ring", 8, small), find("broadcast", "flat", 8, small); ring.Measured <= flat.Measured {
		t.Fatalf("ring broadcast (%v) not slower than flat (%v) at %d bytes", ring.Measured, flat.Measured, small)
	}
	// Pairwise wins the latency-bound all-to-allv.
	if pw, flat := find("alltoallv", "pairwise", 8, small), find("alltoallv", "flat", 8, small); pw.Measured >= flat.Measured {
		t.Fatalf("pairwise all-to-allv (%v) not faster than flat (%v)", pw.Measured, flat.Measured)
	}
	// The hierarchical all-reduce keeps inter-node traffic proportional
	// to node count: 2 leaders instead of 8 ranks at p=8.
	hier, flat := find("allreduce", "hier", 8, big), find("allreduce", "flat", 8, big)
	if hier.Links.InterNode >= flat.Links.InterNode {
		t.Fatalf("hier inter-node bytes (%d) not below flat (%d)", hier.Links.InterNode, flat.Links.InterNode)
	}
	if hier.Links.IntraNode == 0 || flat.Links.IntraNode != 0 {
		t.Fatalf("per-link attribution wrong: hier %+v flat %+v", hier.Links, flat.Links)
	}
}

func TestTprobPerAlgorithmRows(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Tprob(&buf, "products", 4, []int{1, 2}, Options{Profile: datasets.Tiny, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	algs := map[string]int{}
	for _, r := range rows {
		algs[r.Algorithm]++
		if r.Measured <= 0 || r.Predicted <= 0 {
			t.Fatalf("non-positive entries: %+v", r)
		}
	}
	// c=1 degenerates every schedule to flat, so the ring sweep skips it.
	if algs["flat"] != 2 || algs["ring"] != 1 {
		t.Fatalf("algorithm coverage: %v", algs)
	}
}

func TestContentionExperiment(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Contention(&buf, Options{Profile: datasets.Tiny, MaxBatches: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// 2 algorithms x 4 topologies x {sequential, overlapped}.
	if len(rows) != 16 {
		t.Fatalf("got %d rows, want 16", len(rows))
	}
	totals := map[string]float64{} // algorithm/topology/overlap -> total
	for _, r := range rows {
		key := fmt.Sprintf("%s/%s/%v", r.Algorithm, r.Topology, r.Overlap)
		totals[key] = r.Total
		if r.Total <= 0 {
			t.Fatalf("%s: non-positive total", key)
		}
		if r.Topology == "ideal" {
			if len(r.Links) != 0 {
				t.Fatalf("%s: ideal topology reported physical links", key)
			}
			continue
		}
		if len(r.Links) == 0 {
			t.Fatalf("%s: contended run reported no physical links", key)
		}
		if r.Slowdown < 1-1e-9 {
			t.Fatalf("%s: contention sped the run up (%.3fx)", key, r.Slowdown)
		}
		if r.Topology == "oversub4x" && r.PeakNICShare < 2 {
			t.Fatalf("%s: oversubscribed NIC never shared (peak %d)", key, r.PeakNICShare)
		}
	}
	for _, algo := range []string{"replicated", "partitioned"} {
		for _, ov := range []string{"false", "true"} {
			ideal := totals[algo+"/ideal/"+ov]
			over := totals[algo+"/oversub4x/"+ov]
			if over <= ideal {
				t.Fatalf("%s overlap=%s: oversubscribed makespan %.6g not longer than ideal %.6g",
					algo, ov, over, ideal)
			}
		}
	}
}
