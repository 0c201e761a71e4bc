package pipeline

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
)

// contendedRun is one DES configuration on OversubscribedTopology(4).
type contendedRun struct {
	profile                  datasets.Profile
	quiver, overlap          bool
	p, c, epochs, maxBatches int
}

// contendedGolden is one pinned contended run: the makespan, the last
// epoch's phase breakdown and loss, and the physical-link record
// (total bytes, peak concurrency, and a digest of every link's name,
// bytes and peak concurrency).
type contendedGolden struct {
	name                          string
	run                           contendedRun
	sim, total                    float64
	sampling, fetch, prop, stall  float64
	samplingComm, fetchComm, loss float64
	linkBytes                     float64
	maxConc                       int
	linkDigest                    uint64
}

// TestGoldenContendedDES pins DES runs on an oversubscribed fabric,
// where simulated time depends on the order flows commit to the
// contention ledger: bulk and Quiver, sequential and overlapped, at
// p = 16 and 128. The Tiny rows hold one item per rank; the Scale rows
// push four items per rank through the overlapped stage queues. The
// values were captured before the queue operations left the commit
// turn; they must hold bit-for-bit at every GOMAXPROCS.
func TestGoldenContendedDES(t *testing.T) {
	golden := []contendedGolden{
		{"tiny-bulk-seq-p16", contendedRun{datasets.Tiny, false, false, 16, 2, 2, 0}, 0.00085181139245790239, 0.00052691466122456909, 0.000100325, 0.0002413800199956179, 0.00018520964122895127, 0, 0, 0.00024137769999561787, 3.6014730783652187, 6484784, 16, 0x79ad75c42f8385a8},
		{"tiny-bulk-seq-p128", contendedRun{datasets.Tiny, false, false, 128, 8, 2, 0}, 0.0012486730400883947, 0.00082508523753451021, 0.000100325, 0.00040042371749031305, 0.00032433652004419721, 0, 0, 0.0004004229708236464, 3.6015064540681525, 50505088, 128, 0x756d5910716b0642},
		{"tiny-bulk-overlap-p16", contendedRun{datasets.Tiny, false, true, 16, 2, 2, 0}, 0.00085181139245790239, 0.0004259056962289512, 0.00010032500000000001, 0.00024138001999561787, 0.00018520964122895127, 0.00034200944666228458, 0, 0.00024137769999561787, 3.6014730783652187, 6484784, 16, 0x79ad75c42f8385a8},
		{"tiny-bulk-overlap-p128", contendedRun{datasets.Tiny, false, true, 128, 8, 2, 0}, 0.0012486730400883947, 0.00062433652004419734, 0.00010032500000000001, 0.00040042371749031305, 0.00032433652004419721, 0.00050127792381086402, 0, 0.0004004229708236464, 3.6015064540681525, 50505088, 128, 0x756d5910716b0642},
		{"tiny-quiver-seq-p16", contendedRun{datasets.Tiny, true, false, 16, 2, 2, 0}, 0.0011734134951999998, 0.00068779078759999984, 0.00010032500000000001, 0.00040185587999999991, 0.00018560990759999992, 0, 0, 0.00040185326666666659, 3.6014730783652187, 6497312, 16, 0x25c8ed696de5074},
		{"tiny-quiver-seq-p128", contendedRun{datasets.Tiny, true, false, 128, 8, 2, 0}, 0.0057303416685333336, 0.0029656515142666671, 0.00010032500000000001, 0.0026406420999999999, 0.00022468441426666725, 0, 0, 0.0026406416733333335, 3.6015064540681525, 50527408, 128, 0xc569f23da6c45a0d},
		{"tiny-quiver-overlap-p16", contendedRun{datasets.Tiny, true, true, 16, 2, 2, 0}, 0.0011734134951999998, 0.00058670674759999991, 0.00010032500000000001, 0.00040185587999999996, 0.00018560990759999992, 0.00050280658666666659, 0, 0.00040185326666666659, 3.6014730783652187, 6497312, 16, 0x25c8ed696de5074},
		{"tiny-quiver-overlap-p128", contendedRun{datasets.Tiny, true, true, 128, 8, 2, 0}, 0.0057303416685333336, 0.0028651708342666668, 0.00010032500000000001, 0.0026406420999999999, 0.00022468441426666725, 0.0027421083266666669, 0, 0.0026406416733333335, 3.6015064540681525, 50527408, 128, 0xc569f23da6c45a0d},
		{"scale-bulk-overlap-p16", contendedRun{datasets.Scale, false, true, 16, 2, 1, 64}, 0.00099747488274363875, 0.00797979906194911, 0.00082530959999999997, 0.0047128102770722605, 0.0059952805552824428, 0.0034974977474386444, 0, 0.0047113301704055947, 3.8815741444886394, 14900032, 32, 0xb967f6e90177f7ba},
		{"scale-bulk-overlap-p128", contendedRun{datasets.Scale, false, true, 128, 8, 1, 512}, 0.0015450320237801434, 0.0015450320237801434, 0.00010411065000000001, 0.0012188124643468098, 0.00092342978154856667, 0.00075432419201467284, 0, 0.0012185813176801431, 3.8710028173254982, 121145408, 144, 0x68554bbe0581076c},
		{"scale-quiver-overlap-p16", contendedRun{datasets.Scale, true, true, 16, 2, 1, 64}, 0.0015370105119999996, 0.012296084095999997, 0.0032255180000000001, 0.010015121706666661, 0.0059984569488009849, 0.010588237467199007, 0, 0.010013292159999996, 3.8852784298987491, 15134320, 32, 0x74ed79bb9d0e6a8f},
		{"scale-quiver-overlap-p128", contendedRun{datasets.Scale, true, true, 128, 8, 1, 512}, 0.010567403698666676, 0.010567403698666676, 0.00040416375000000007, 0.010243121053333342, 0.00093102959520000104, 0.014694218260133346, 0, 0.01024258420000001, 3.8717807103178998, 123144560, 128, 0x38370d4ad2215676},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			got := g.run.exec(t)
			got.name = g.name
			if got != g {
				t.Errorf("contended run moved:\n got %s\nwant %s", got, g)
			}
		})
	}
}

// exec runs the configuration and records what contendedGolden pins.
func (r contendedRun) exec(t *testing.T) contendedGolden {
	t.Helper()
	d := datasets.ProductsLike(r.profile)
	cfg := Config{P: r.p, C: r.c, Epochs: r.epochs, MaxBatches: r.maxBatches, Seed: 17,
		Overlap: r.overlap, Topology: cluster.OversubscribedTopology(4)}
	if r.quiver {
		cfg.Algorithm, cfg.C = Quiver, 1
	}
	res, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := res.LastEpoch()
	g := contendedGolden{run: r, sim: res.Cluster.SimTime, total: e.Total,
		sampling: e.Sampling, fetch: e.FeatureFetch, prop: e.Propagation, stall: e.Stall,
		samplingComm: e.SamplingComm, fetchComm: e.FetchComm, loss: e.Loss}
	h := fnv.New64a()
	for _, l := range res.Cluster.PhysLinks {
		g.linkBytes += l.Bytes
		g.maxConc = max(g.maxConc, l.MaxConcurrency)
		fmt.Fprintf(h, "%s %.17g %d\n", l.Name, l.Bytes, l.MaxConcurrency)
	}
	g.linkDigest = h.Sum64()
	return g
}

// String prints a golden as the table literal that pins it.
func (g contendedGolden) String() string {
	r := g.run
	return fmt.Sprintf("{%q, contendedRun{%d, %v, %v, %d, %d, %d, %d}, %.17g, %.17g, %.17g, %.17g, %.17g, %.17g, %.17g, %.17g, %.17g, %.17g, %d, %#x}",
		g.name, r.profile, r.quiver, r.overlap, r.p, r.c, r.epochs, r.maxBatches, g.sim, g.total,
		g.sampling, g.fetch, g.prop, g.stall, g.samplingComm, g.fetchComm, g.loss,
		g.linkBytes, g.maxConc, g.linkDigest)
}
