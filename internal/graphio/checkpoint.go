package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cluster"
)

// Checkpoint is the complete resumable training state captured at an
// epoch boundary: everything a restarted run needs to continue
// bit-identically to an uninterrupted one. Params and optimizer moments
// come from rank 0 (the state is replicated, so one copy suffices);
// Ranks holds the per-rank simulated-time accounting snapshots (clocks,
// phase accumulators, traffic counters) that let the restored run's
// simulated timeline continue the exact float-addition sequences of the
// original.
type Checkpoint struct {
	// Epoch is the number of completed epochs (the restart resumes at
	// epoch index Epoch).
	Epoch int
	// Params is the flat model parameter vector.
	Params []float64
	// OptT / OptM / OptV are the Adam step count and moment vectors
	// (nil moments = optimizer not yet stepped).
	OptT int
	OptM []float64
	OptV []float64
	// Ranks holds one accounting snapshot per rank, in rank order.
	Ranks []cluster.RankSnapshot
}

// ckptMagic distinguishes resumable-state checkpoints from the
// params-only "GNNCK1\n" files; ckptVersion gates layout skew. Version
// 4 writes a rank's traffic as one sorted ops section of (name, count,
// bytes) entries and three link ints, and a stream's phase state as one
// cluster.PhaseAcc record per phase name (writePhaseAcc).
var ckptMagic = []byte("GNNRS1\n")

const ckptVersion = 4

// WriteCheckpoint serializes a resumable training checkpoint. The
// encoding is deterministic (map keys are sorted), so identical states
// produce identical bytes.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(ckptMagic); err != nil {
		return err
	}
	if err := writeInts(bw, ckptVersion, int64(ck.Epoch), int64(ck.OptT)); err != nil {
		return err
	}
	for _, fs := range [][]float64{ck.Params, ck.OptM, ck.OptV} {
		if err := writeFloatSlice(bw, fs); err != nil {
			return err
		}
	}
	if err := writeInts(bw, int64(len(ck.Ranks))); err != nil {
		return err
	}
	for i := range ck.Ranks {
		if err := writeRankSnapshot(bw, &ck.Ranks[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint. Any
// truncation, corruption or version skew yields an error — never a
// panic, and never an allocation larger than the input's real size
// (fuzz-pinned, like the other graphio readers).
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, err
	}
	if string(head) != string(ckptMagic) {
		return nil, fmt.Errorf("graphio: bad resumable-checkpoint magic %q", head)
	}
	hdr, err := readInts(br, 3)
	if err != nil {
		return nil, err
	}
	if hdr[0] != ckptVersion {
		return nil, fmt.Errorf("graphio: unsupported checkpoint version %d (want %d)", hdr[0], ckptVersion)
	}
	if hdr[1] < 0 || hdr[1] > maxWireElems {
		return nil, fmt.Errorf("graphio: implausible checkpoint epoch %d", hdr[1])
	}
	if hdr[2] < 0 || hdr[2] > maxWireElems {
		return nil, fmt.Errorf("graphio: implausible optimizer step count %d", hdr[2])
	}
	ck := &Checkpoint{Epoch: int(hdr[1]), OptT: int(hdr[2])}
	if ck.Params, err = readFloatSlice(br); err != nil {
		return nil, err
	}
	if ck.OptM, err = readFloatSlice(br); err != nil {
		return nil, err
	}
	if ck.OptV, err = readFloatSlice(br); err != nil {
		return nil, err
	}
	n, err := readInts(br, 1)
	if err != nil {
		return nil, err
	}
	// Rank counts are tiny in practice; 1<<20 is far above any p while
	// keeping a lying header's snapshot loop bounded.
	if n[0] < 0 || n[0] > 1<<20 {
		return nil, fmt.Errorf("graphio: implausible rank count %d", n[0])
	}
	ck.Ranks = make([]cluster.RankSnapshot, 0, capHint(int(n[0])))
	for i := int64(0); i < n[0]; i++ {
		snap, err := readRankSnapshot(br)
		if err != nil {
			return nil, err
		}
		ck.Ranks = append(ck.Ranks, snap)
	}
	return ck, nil
}

func writeRankSnapshot(w io.Writer, snap *cluster.RankSnapshot) error {
	if err := writeInts(w, int64(len(snap.Phases))); err != nil {
		return err
	}
	for _, name := range snap.Phases {
		if err := writeString(w, name); err != nil {
			return err
		}
	}
	if err := writeInts(w, int64(len(snap.Ops))); err != nil {
		return err
	}
	for _, k := range sortedKeys(snap.Ops) {
		if err := writeString(w, k); err != nil {
			return err
		}
		t := snap.Ops[k]
		if err := writeInts(w, t.Count, t.Bytes); err != nil {
			return err
		}
	}
	if err := writeInts(w, snap.Link[:]...); err != nil {
		return err
	}
	if err := writeStreamSnapshot(w, &snap.Main); err != nil {
		return err
	}
	if err := writeInts(w, int64(len(snap.Streams))); err != nil {
		return err
	}
	for i := range snap.Streams {
		if err := writeStreamSnapshot(w, &snap.Streams[i]); err != nil {
			return err
		}
	}
	return nil
}

func readRankSnapshot(r io.Reader) (cluster.RankSnapshot, error) {
	var snap cluster.RankSnapshot
	n, err := readInts(r, 1)
	if err != nil {
		return snap, err
	}
	if n[0] < 0 || n[0] > maxWireElems {
		return snap, fmt.Errorf("graphio: implausible phase count %d", n[0])
	}
	snap.Phases = make([]string, 0, capHint(int(n[0])))
	seen := make(map[string]bool, capHint(int(n[0])))
	for i := int64(0); i < n[0]; i++ {
		name, err := readString(r)
		if err != nil {
			return snap, err
		}
		if seen[name] {
			return snap, fmt.Errorf("graphio: phase %q interned twice", name)
		}
		seen[name] = true
		snap.Phases = append(snap.Phases, name)
	}
	cnt, err := readInts(r, 1)
	if err != nil {
		return snap, err
	}
	if cnt[0] < 0 || cnt[0] > maxWireElems {
		return snap, fmt.Errorf("graphio: implausible map size %d", cnt[0])
	}
	snap.Ops = make(map[string]cluster.OpTally, capHint(int(cnt[0])))
	for i := int64(0); i < cnt[0]; i++ {
		k, err := readString(r)
		if err != nil {
			return snap, err
		}
		v, err := readInts(r, 2)
		if err != nil {
			return snap, err
		}
		snap.Ops[k] = cluster.OpTally{Count: v[0], Bytes: v[1]}
	}
	link, err := readInts(r, 3)
	if err != nil {
		return snap, err
	}
	copy(snap.Link[:], link)
	if snap.Main, err = readStreamSnapshot(r, len(snap.Phases)); err != nil {
		return snap, err
	}
	cnt, err = readInts(r, 1)
	if err != nil {
		return snap, err
	}
	if cnt[0] < 0 || cnt[0] > maxWireElems {
		return snap, fmt.Errorf("graphio: implausible stream count %d", cnt[0])
	}
	snap.Streams = make([]cluster.StreamSnapshot, 0, capHint(int(cnt[0])))
	for i := int64(0); i < cnt[0]; i++ {
		ss, err := readStreamSnapshot(r, len(snap.Phases))
		if err != nil {
			return snap, err
		}
		snap.Streams = append(snap.Streams, ss)
	}
	return snap, nil
}

func writeStreamSnapshot(w io.Writer, ss *cluster.StreamSnapshot) error {
	if err := writeInts(w, int64(math.Float64bits(ss.Clock)), int64(len(ss.Phases))); err != nil {
		return err
	}
	for _, p := range ss.Phases {
		if err := writePhaseAcc(w, p); err != nil {
			return err
		}
	}
	return nil
}

// readStreamSnapshot reads one stream of a rank with the given number
// of phase names. A stream grows only to an interned slot, so more
// records than names is refused: restored, the extra seconds would be
// booked to whatever phase the fresh run interned at that slot.
func readStreamSnapshot(r io.Reader, names int) (cluster.StreamSnapshot, error) {
	var ss cluster.StreamSnapshot
	hdr, err := readInts(r, 2)
	if err != nil {
		return ss, err
	}
	ss.Clock = math.Float64frombits(uint64(hdr[0]))
	if hdr[1] < 0 || hdr[1] > int64(names) {
		return ss, fmt.Errorf("graphio: stream holds %d phase records for %d phase names", hdr[1], names)
	}
	ss.Phases = make([]cluster.PhaseAcc, 0, capHint(int(hdr[1])))
	for i := int64(0); i < hdr[1]; i++ {
		p, err := readPhaseAcc(r)
		if err != nil {
			return ss, err
		}
		ss.Phases = append(ss.Phases, p)
	}
	return ss, nil
}

// writePhaseAcc writes one phase record: Seconds and Comm as float
// bits, then Touched as one byte.
func writePhaseAcc(w io.Writer, p cluster.PhaseAcc) error {
	var b [17]byte
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(p.Seconds))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Comm))
	if p.Touched {
		b[16] = 1
	}
	_, err := w.Write(b[:])
	return err
}

func readPhaseAcc(r io.Reader) (cluster.PhaseAcc, error) {
	var b [17]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return cluster.PhaseAcc{}, err
	}
	return cluster.PhaseAcc{
		Seconds: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		Comm:    math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		Touched: b[16] != 0,
	}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
