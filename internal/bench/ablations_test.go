package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/distsample"
)

// oneDPin is what one 1D baseline sampling run charged: the makespan
// and, per sampling phase, the maximum time and communication time of
// any rank (all as float bits), the bytes all ranks sent, and a digest
// of every rank's clock, phase times and bytes.
type oneDPin struct {
	simTime uint64
	phase   [3][2]uint64
	bytes   int64
	ranks   string
}

// oneDPins were captured from the 1D baseline as it ran before it moved
// onto a per-rank sparse.Scratch (allocating SpGEMM per stage, pairwise
// AddCSR fold). Both backends must reproduce them.
var oneDPins = map[int]oneDPin{
	4: {0x3f340d836eed25c8, [3][2]uint64{
		{0x3f301b8a7b7864db, 0x3f11326e7082c058}, {0x3e88986c0bdb9a34, 0}, {0x3f0f772f2f9a2bcf, 0}},
		231648, "155f0218f6fec6da"},
	8: {0x3f4d2872b97db412, [3][2]uint64{
		{0x3f4b2f793497ef82, 0x3f400b3ee8cfc3a2}, {0x3e88986c0bdb9a34, 0}, {0x3f0f772f2f9a2bcf, 0}},
		540960, "8ee8354ded4140af"},
}

var oneDPhases = []string{distsample.PhaseProbability, distsample.PhaseSampling, distsample.PhaseExtraction}

func oneDCharge(res *cluster.Result) oneDPin {
	got := oneDPin{simTime: math.Float64bits(res.SimTime), bytes: bytesSent(res)}
	for i, ph := range oneDPhases {
		got.phase[i] = [2]uint64{math.Float64bits(res.Phase(ph)), math.Float64bits(res.PhaseComm(ph))}
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, st := range res.Ranks {
		put(math.Float64bits(st.Clock))
		for _, ph := range oneDPhases {
			put(math.Float64bits(st.PhaseTotal[ph]))
			put(math.Float64bits(st.PhaseComm[ph]))
		}
		put(uint64(st.BytesSent))
	}
	got.ranks = fmt.Sprintf("%016x", h.Sum64())
	return got
}

// The 1D block-row baseline charges exactly the pinned simulated times
// and bytes at every p on both backends: its host kernels may change,
// what the device is charged may not.
func TestOneDBaselinePinned(t *testing.T) {
	d, err := datasets.ByName("products", datasets.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, 8} {
		for _, be := range []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend} {
			model := cluster.Perlmutter()
			model.Backend = be
			res, err := RunOneDSampling(d, p, 0, 1, model)
			if err != nil {
				t.Fatal(err)
			}
			if got := oneDCharge(res); got != oneDPins[p] {
				t.Errorf("p=%d on %v: charged %#v, pinned %#v", p, be, got, oneDPins[p])
			}
		}
	}
}
