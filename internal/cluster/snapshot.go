package cluster

import "maps"

// StreamSnapshot captures one execution timeline's clock and phase
// accumulators: record i belongs to the phase named
// RankSnapshot.Phases[i], and a restore books it to whatever slot the
// fresh run gives that name. A stream never holds more records than its
// rank has names.
type StreamSnapshot struct {
	Clock  float64
	Phases []PhaseAcc
}

// RankSnapshot captures a rank's complete accounting state at a
// quiescent point — no forked stream running, which epoch boundaries
// guarantee (the engine joins every stream before Execute returns).
// Restoring it into a fresh Run resumes the rank's timeline exactly:
// the main stream continues the same partial float sums in the same
// order, the already-finished forked streams are re-materialized as
// inert ghosts for the stats fold, and the integer traffic tally
// carries over — so a run restored at epoch e finishes with accounting
// bit-identical to one that was never interrupted.
type RankSnapshot struct {
	// Phases holds the interned phase names in slot order.
	Phases []string
	Ops    map[string]OpTally
	Link   [3]int64
	// Main is the rank's own timeline; Streams are the forked streams
	// in creation order (the stats fold order).
	Main    StreamSnapshot
	Streams []StreamSnapshot
}

func snapStream(r *Rank) StreamSnapshot {
	return StreamSnapshot{Clock: r.clock, Phases: append([]PhaseAcc(nil), r.phaseAcc...)}
}

// Snapshot captures the rank's accounting. Call it only on the main
// timeline, at a point where no forked stream is running (an epoch
// boundary).
func (r *Rank) Snapshot() RankSnapshot {
	if r.stream != "" {
		panic("cluster: Snapshot must run on the rank's main timeline")
	}
	a := r.acct
	a.mu.Lock()
	defer a.mu.Unlock()
	snap := RankSnapshot{
		Phases: append([]string(nil), a.phaseNames...),
		Ops:    maps.Clone(a.ops),
		Link:   a.link,
		Main:   snapStream(r),
	}
	for _, s := range a.streams {
		snap.Streams = append(snap.Streams, snapStream(s))
	}
	return snap
}

// Restore seeds a freshly-created rank (a new Run, before any work)
// with a snapshot taken in an earlier run: each phase record is booked
// to the slot the fresh run gives its name, the main timeline resumes
// at the snapshot clock with the same partial phase sums, and each
// pre-snapshot forked stream becomes an inert "ghost" entry in the
// stream list — it never runs again, but the stats fold sums its
// recorded accumulators at the same position in creation order, which
// keeps the folded totals bit-identical to an uninterrupted run's
// (float addition is order-sensitive). Streams forked after Restore
// append after the ghosts, exactly where the uninterrupted run's later
// streams would sit.
func (r *Rank) Restore(snap RankSnapshot) {
	if r.stream != "" {
		panic("cluster: Restore must run on the rank's main timeline")
	}
	slots := make([]int, len(snap.Phases))
	for i, name := range snap.Phases {
		slots[i] = r.acct.slotFor(name)
	}
	a := r.acct
	a.mu.Lock()
	maps.Copy(a.ops, snap.Ops)
	a.link = snap.Link
	for _, ss := range snap.Streams {
		a.streams = append(a.streams, &Rank{
			ID:       r.ID,
			N:        r.N,
			model:    r.model,
			clock:    ss.Clock,
			stream:   "(ghost)",
			acct:     a,
			phaseAcc: bookBySlot(ss.Phases, slots),
			cont:     r.cont,
			cl:       r.cl,
		})
	}
	a.mu.Unlock()
	r.clock = snap.Main.Clock
	r.phaseAcc = bookBySlot(snap.Main.Phases, slots)
	// The phase stack is untouched (still the fresh run's base level);
	// its slots were interned by the loop above if the names recur.
	r.rebuildPhaseSlots()
}

// bookBySlot places record i at slots[i], the fresh run's slot for the
// record's phase name.
func bookBySlot(recs []PhaseAcc, slots []int) []PhaseAcc {
	out := make([]PhaseAcc, 0, len(recs))
	for i, p := range recs {
		s := slots[i]
		if s >= len(out) {
			out = append(out, make([]PhaseAcc, s+1-len(out))...)
		}
		out[s] = p
	}
	return out
}
