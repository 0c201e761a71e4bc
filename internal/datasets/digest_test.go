package datasets

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// presetDigests pins every preset's bytes: a change to graph
// construction (COO assembly, the R-MAT edge set, the min-degree fill)
// or to the feature/label/split draws must leave these unchanged, or
// it has changed every result downstream of the dataset.
var presetDigests = map[string]string{
	"products/tiny":  "9764e92daad9f1fd",
	"products/small": "916098757887e55d",
	"products/bench": "5c92c2ce3508964c",
	"products/scale": "1676c7ecaa4782ec",
	"protein/tiny":   "004c392bc879b076",
	"protein/small":  "cbae77ea5a964e7c",
	"protein/bench":  "d749422a7dd8228d",
	"protein/scale":  "b47fd5b57f58af79",
	"papers/tiny":    "87c4f368339df28b",
	"papers/small":   "2deb977f502487f7",
	"papers/bench":   "bcd324e93082ff35",
	"papers/scale":   "5474850b6ff1c283",
	"sbm":            "a5276a7d7ccc53bf",
}

// datasetDigest is the FNV-1a hash of the adjacency (RowPtr, ColIdx,
// Val bits), the feature bits, the labels and the three splits.
func datasetDigest(d *Dataset) string {
	h := fnv.New64a()
	adj := d.Graph.Adj
	writeInts(h, []int{adj.Rows, adj.Cols, d.Features.Rows, d.Features.Cols})
	writeInts(h, adj.RowPtr)
	writeInts(h, adj.ColIdx)
	writeFloats(h, adj.Val)
	writeFloats(h, d.Features.Data)
	writeInts(h, d.Labels)
	writeInts(h, d.Train)
	writeInts(h, d.Val)
	writeInts(h, d.Test)
	return fmt.Sprintf("%016x", h.Sum64())
}

func writeInts(h hash.Hash64, xs []int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func writeFloats(h hash.Hash64, xs []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func TestPresetDigests(t *testing.T) {
	got := map[string]string{}
	for _, name := range Names() {
		for _, p := range []Profile{Tiny, Small, Bench, Scale} {
			key := fmt.Sprintf("%s/%s", name, p)
			d, err := Build(name, p)
			if err != nil {
				t.Fatal(err)
			}
			got[key] = datasetDigest(d)
		}
	}
	got["sbm"] = datasetDigest(DefaultSBM())
	for key, want := range presetDigests {
		if got[key] != want {
			t.Errorf("%s: digest %s, want %s", key, got[key], want)
		}
	}
	if len(got) != len(presetDigests) {
		t.Errorf("digested %d datasets, pinned %d", len(got), len(presetDigests))
	}
}
