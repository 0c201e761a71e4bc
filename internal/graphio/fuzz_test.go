package graphio

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
)

// Native Go fuzz targets for the binary readers: arbitrary input must
// produce an error or a structurally valid value — never a panic and
// never an input-length-independent allocation. Seed corpora live
// under testdata/fuzz (valid serializations plus truncations and
// header mutations); CI runs each target for a short budget.

func FuzzReadParams(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteParams(&buf, []float64{1, 2.5, -3}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("GNNCK1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadParams(bytes.NewReader(data))
	})
}

// FuzzCheckpointRead covers the resumable-checkpoint reader: arbitrary
// bytes must produce an error or a checkpoint that survives a
// write→read round trip byte-identically — never a panic and never an
// allocation beyond the input's real size. An accepted checkpoint of at
// most 8 ranks must also restore into a fresh cluster and run to its
// stats without a panic.
func FuzzCheckpointRead(f *testing.F) {
	var buf bytes.Buffer
	ck := &Checkpoint{
		Epoch:  3,
		Params: []float64{1, -2.5, 3e-9},
		OptT:   7,
		OptM:   []float64{0.1, 0.2, 0.3},
		OptV:   []float64{0.01, 0.02, 0.03},
		Ranks: []cluster.RankSnapshot{{
			Phases:  []string{"sampling", "propagation"},
			Ops:     map[string]cluster.OpTally{"allreduce": {Count: 12, Bytes: 4096}},
			Link:    [3]int64{1, 2, 3},
			Main:    cluster.StreamSnapshot{Clock: 1.5, Phases: []cluster.PhaseAcc{{Seconds: 1, Touched: true}, {Seconds: 0.5, Comm: 0.25, Touched: true}}},
			Streams: []cluster.StreamSnapshot{{Clock: 1.25, Phases: []cluster.PhaseAcc{{Seconds: 1, Touched: true}}}},
		}},
	}
	if err := WriteCheckpoint(&buf, ck); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncation
	f.Add(valid[:7])            // magic only
	mutated := append([]byte(nil), valid...)
	mutated[8] ^= 0xff // version skew
	f.Add(mutated)
	f.Add([]byte("GNNRS1\n"))
	f.Add([]byte("GNNCK1\n")) // params-only magic: wrong format
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCheckpoint(&out, ck); err != nil {
			t.Fatalf("re-serializing an accepted checkpoint failed: %v", err)
		}
		ck2, err := ReadCheckpoint(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a re-serialized checkpoint failed: %v", err)
		}
		var out2 bytes.Buffer
		if err := WriteCheckpoint(&out2, ck2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("checkpoint round trip is not byte-stable")
		}
		if n := len(ck.Ranks); n >= 1 && n <= 8 {
			_, err := cluster.New(n, cluster.CostModel{}).Run(func(r *cluster.Rank) error {
				r.Restore(ck.Ranks[r.ID])
				r.Charge(cluster.Work{Kernels: 1})
				return nil
			})
			if err != nil {
				t.Fatalf("restored run failed: %v", err)
			}
		}
	})
}
