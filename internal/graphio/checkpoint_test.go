package graphio

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

// randCheckpoint builds a structurally rich checkpoint from a seeded
// stream: multiple ranks, ghost streams, phase maps with several keys,
// negative and special-valued floats. A stream holds at most as many
// phase records as its rank has names, as a run's streams do.
func randCheckpoint(seed int64) *Checkpoint {
	rng := rand.New(rand.NewSource(seed))
	float := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)) }
	floats := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float()
		}
		return out
	}
	phases := []string{"sampling", "feature-fetch", "propagation", "stall", "checkpoint"}
	stream := func(names int) cluster.StreamSnapshot {
		ss := cluster.StreamSnapshot{Clock: rng.Float64() * 100}
		for n := min(1+rng.Intn(len(phases)), names); n > 0; n-- {
			ss.Phases = append(ss.Phases, cluster.PhaseAcc{Seconds: float(), Comm: float(), Touched: rng.Intn(2) == 0})
		}
		return ss
	}
	p := 1 + rng.Intn(4)
	ck := &Checkpoint{
		Epoch:  rng.Intn(10),
		Params: floats(16 + rng.Intn(64)),
		OptT:   rng.Intn(100),
	}
	ck.OptM = floats(len(ck.Params))
	ck.OptV = floats(len(ck.Params))
	for i := 0; i < p; i++ {
		names := phases[:1+rng.Intn(len(phases))]
		snap := cluster.RankSnapshot{
			Phases: names,
			Ops: map[string]cluster.OpTally{
				"allreduce": {Count: rng.Int63n(1000), Bytes: rng.Int63n(1 << 30)},
				"alltoallv": {Count: rng.Int63n(1000)},
			},
			Link: [3]int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20), rng.Int63n(1 << 20)},
			Main: stream(len(names)),
		}
		for s := rng.Intn(3); s > 0; s-- {
			snap.Streams = append(snap.Streams, stream(len(names)))
		}
		ck.Ranks = append(ck.Ranks, snap)
	}
	return ck
}

// encode serializes a checkpoint or fails the test.
func encodeCkpt(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRoundTrip is the property test: across seeded random
// checkpoints, write→read must reproduce every field (bitwise on
// floats) and re-encoding must be byte-identical (the encoding is
// deterministic: sorted map keys).
func TestCheckpointRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		ck := randCheckpoint(seed)
		data := encodeCkpt(t, ck)
		got, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Epoch != ck.Epoch || got.OptT != ck.OptT {
			t.Fatalf("seed %d: header fields changed: %+v vs %+v", seed, got, ck)
		}
		for name, pair := range map[string][2][]float64{
			"Params": {got.Params, ck.Params},
			"OptM":   {got.OptM, ck.OptM},
			"OptV":   {got.OptV, ck.OptV},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("seed %d: %s length %d != %d", seed, name, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("seed %d: %s[%d] changed", seed, name, i)
				}
			}
		}
		if len(got.Ranks) != len(ck.Ranks) {
			t.Fatalf("seed %d: rank count %d != %d", seed, len(got.Ranks), len(ck.Ranks))
		}
		for i := range got.Ranks {
			if !reflect.DeepEqual(got.Ranks[i].Phases, ck.Ranks[i].Phases) ||
				!reflect.DeepEqual(got.Ranks[i].Ops, ck.Ranks[i].Ops) ||
				got.Ranks[i].Link != ck.Ranks[i].Link {
				t.Fatalf("seed %d: rank %d metadata changed", seed, i)
			}
		}
		if again := encodeCkpt(t, got); !bytes.Equal(again, data) {
			t.Fatalf("seed %d: re-encoding is not byte-identical", seed)
		}
	}
}

// TestCheckpointSpecialFloats pins bitwise float transport: NaN
// payloads, infinities and negative zero survive exactly.
func TestCheckpointSpecialFloats(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	ck := &Checkpoint{Params: specials, OptM: specials, OptV: specials}
	got, err := ReadCheckpoint(bytes.NewReader(encodeCkpt(t, ck)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range specials {
		if math.Float64bits(got.Params[i]) != math.Float64bits(v) {
			t.Fatalf("special float %v changed to %v", v, got.Params[i])
		}
	}
}

// TestCheckpointTruncation: every strict prefix of a valid checkpoint
// must produce an error — cleanly, never a panic.
func TestCheckpointTruncation(t *testing.T) {
	data := encodeCkpt(t, randCheckpoint(7))
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadCheckpoint(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes was accepted", cut, len(data))
		}
	}
}

// TestCheckpointCorruption: magic and version skew error cleanly with
// identifiable messages.
func TestCheckpointCorruption(t *testing.T) {
	data := encodeCkpt(t, randCheckpoint(11))

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt magic accepted")
	}

	// Version field is the first int64 after the 7-byte magic.
	skewed := append([]byte(nil), data...)
	skewed[7] = 0x7f
	if _, err := ReadCheckpoint(bytes.NewReader(skewed)); err == nil {
		t.Fatal("version skew accepted")
	}

	// A params-only checkpoint ("GNNCK1\n") is a different format and
	// must be rejected by magic, not misparsed.
	var pbuf bytes.Buffer
	if err := WriteParams(&pbuf, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(pbuf.Bytes())); err == nil {
		t.Fatal("params-only file accepted as resumable checkpoint")
	}
}

// TestCheckpointHostileLengths: lying length headers must error before
// allocating anything input-length-independent.
func TestCheckpointHostileLengths(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(ckptMagic)
	_ = writeInts(&buf, ckptVersion, 0, 0)
	_ = writeInts(&buf, int64(1)<<40) // params length far beyond the payload
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("absurd params length accepted")
	}

	buf.Reset()
	buf.Write(ckptMagic)
	_ = writeInts(&buf, ckptVersion, 0, 0)
	for i := 0; i < 3; i++ {
		_ = writeInts(&buf, 0) // empty params/optM/optV
	}
	_ = writeInts(&buf, int64(1)<<30) // absurd rank count
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("absurd rank count accepted")
	}

	// A plausible-looking small claim followed by EOF must be an error,
	// not a partial value.
	buf.Reset()
	buf.Write(ckptMagic)
	_ = writeInts(&buf, ckptVersion, 0, 0)
	_ = writeInts(&buf, 8) // claims 8 params, provides none
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != io.ErrUnexpectedEOF && err != io.EOF {
		t.Fatalf("short params payload: got %v, want unexpected EOF", err)
	}
}

// TestCheckpointRejectsImpossiblePhaseShapes: a stream grows only to a
// slot its rank interned, and a rank interns each name once, so a
// checkpoint saying otherwise is refused rather than restored with
// seconds booked to the wrong phase.
func TestCheckpointRejectsImpossiblePhaseShapes(t *testing.T) {
	for name, snap := range map[string]cluster.RankSnapshot{
		"main stream has more records than names": {
			Phases: []string{"default"},
			Main:   cluster.StreamSnapshot{Phases: make([]cluster.PhaseAcc, 2)},
		},
		"ghost stream has more records than names": {
			Phases:  []string{"default"},
			Streams: []cluster.StreamSnapshot{{Phases: make([]cluster.PhaseAcc, 2)}},
		},
		"name interned twice": {Phases: []string{"default", "default"}},
	} {
		data := encodeCkpt(t, &Checkpoint{Ranks: []cluster.RankSnapshot{snap}})
		if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPhaseAccSurvivesRestore sets every field of a cluster.PhaseAcc to
// a distinct value, on the main stream and on a ghost stream, and
// carries both through WriteCheckpoint, ReadCheckpoint, Restore, Run and
// the stats fold. It walks the record by reflection, so a field added
// to PhaseAcc that the codec or the fold drops fails here by name. A
// restore books each record by its phase name, so a snapshot whose
// names do not start with the fresh run's "default" reads back the
// same. Every OpTally field and Link tier carries a distinct value too,
// and must come back in Stats by name.
func TestPhaseAccSurvivesRestore(t *testing.T) {
	distinct := func(base float64) cluster.PhaseAcc {
		var p cluster.PhaseAcc
		v := reflect.ValueOf(&p).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Float64:
				f.SetFloat(base + float64(i))
			case reflect.Int64:
				f.SetInt(int64(base) + int64(i))
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("PhaseAcc.%s: no distinct value for a %s", v.Type().Field(i).Name, f.Kind())
			}
		}
		return p
	}
	onMain, onGhost := distinct(1.5), distinct(100.25)
	ops := map[string]cluster.OpTally{"allreduce": {Count: 3, Bytes: 70}, "alltoallv": {Count: 5, Bytes: 110}}
	link := [3]int64{1000, 2000, 4000}
	for _, c := range []struct {
		name string
		snap cluster.RankSnapshot
		want map[string]cluster.PhaseAcc
	}{
		{"names start with default", cluster.RankSnapshot{
			Phases:  []string{"default", "main", "ghost"},
			Main:    cluster.StreamSnapshot{Clock: 2, Phases: []cluster.PhaseAcc{{}, onMain}},
			Streams: []cluster.StreamSnapshot{{Clock: 1, Phases: []cluster.PhaseAcc{{}, {}, onGhost}}},
		}, map[string]cluster.PhaseAcc{"main": onMain, "ghost": onGhost}},
		{"names without default", cluster.RankSnapshot{
			Phases:  []string{"sampling", "propagation"},
			Main:    cluster.StreamSnapshot{Clock: 2, Phases: []cluster.PhaseAcc{onMain}},
			Streams: []cluster.StreamSnapshot{{Clock: 1, Phases: []cluster.PhaseAcc{{}, onGhost}}},
		}, map[string]cluster.PhaseAcc{"sampling": onMain, "propagation": onGhost}},
	} {
		c.snap.Ops, c.snap.Link = ops, link
		got, err := ReadCheckpoint(bytes.NewReader(encodeCkpt(t, &Checkpoint{Ranks: []cluster.RankSnapshot{c.snap}})))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.New(1, cluster.CostModel{}).Run(func(r *cluster.Rank) error {
			r.Restore(got.Ranks[0])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Ranks[0]
		if len(st.Phases) != len(c.want) {
			t.Errorf("%s: restored run reports %d phases, want %d: %v", c.name, len(st.Phases), len(c.want), st.Phases)
		}
		for phase, w := range c.want {
			hv, wv := reflect.ValueOf(st.Phases[phase]), reflect.ValueOf(w)
			for i := 0; i < wv.NumField(); i++ {
				if h, w := hv.Field(i).Interface(), wv.Field(i).Interface(); h != w {
					t.Errorf("%s: phase %q: PhaseAcc.%s = %v after restore, want %v", c.name, phase, wv.Type().Field(i).Name, h, w)
				}
			}
		}
		var sum int64
		for op, w := range ops {
			if st.OpCount[op] != w.Count {
				t.Errorf("%s: OpCount[%q] = %d after restore, want %d", c.name, op, st.OpCount[op], w.Count)
			}
			if st.OpBytes[op] != w.Bytes {
				t.Errorf("%s: OpBytes[%q] = %d after restore, want %d", c.name, op, st.OpBytes[op], w.Bytes)
			}
			sum += w.Bytes
		}
		for l, w := range link {
			if st.Link[l] != w {
				t.Errorf("%s: Link[%s] = %d after restore, want %d", c.name, cluster.Link(l), st.Link[l], w)
			}
		}
		if st.BytesSent != sum {
			t.Errorf("%s: BytesSent = %d after restore, want the op bytes' sum %d", c.name, st.BytesSent, sum)
		}
	}
}
