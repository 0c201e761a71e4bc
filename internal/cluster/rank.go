package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/cluster/sim"
)

// Rank is one simulated device (a "GPU") executing the per-process body
// of a distributed program. It owns a simulated clock that advances
// when compute is charged or when a collective completes, and a set of
// named phase buckets so experiments can report the same time
// breakdowns as the paper's figures (sampling / feature fetching /
// propagation, probability / sampling / extraction, comm / comp).
//
// A Rank value is also the handle for one execution *stream*: Stream
// forks a concurrent timeline (like a CUDA stream) that shares the
// rank's identity, cost model and phase accounting but advances an
// independent clock. Streams let an overlapped scheduler charge
// prefetched work concurrently with the main timeline; the rank's
// reported time is the maximum over its streams, not their sum.
type Rank struct {
	ID, N int

	model *CostModel

	clock float64
	// phases is a stack: charges accrue to every level, so an outer
	// phase ("sampling") can subsume the detailed phases a nested
	// driver sets ("probability"/"sampling"/"extraction"). SetPhase
	// replaces the top level; Push/PopPhase manage nesting.
	phases []string
	// phaseSlots caches the accumulator indices of the distinct phases
	// on the stack, in stack order — recomputed on every stack change
	// so the per-charge hot path (advance) adds into flat slices
	// instead of hashing names and re-scanning the stack for
	// duplicates on every charge.
	phaseSlots []int

	// stream is the timeline's name; "" is the rank's main stream.
	stream string
	// acct is the accounting shared by every stream of this rank.
	acct *acct
	// phaseTotal/phaseComm/phaseTouched are this stream's private phase
	// accumulators, indexed by the acct's interned slot ids and grown on
	// demand (a slot may be interned by a sibling stream first). They
	// are stream-local so concurrent streams never interleave
	// floating-point additions into one bucket — summation order, and
	// with it the last-ulp of every phase total, must be a function of
	// the program, not of the scheduler. stats() folds the streams in
	// creation order.
	phaseTotal   []float64
	phaseComm    []float64
	phaseTouched []bool
	// cont is the cluster's physical-link contention ledger (nil when
	// the model carries no Topology); ChargeLink routes through it.
	cont *contention

	// failAt is the armed fail-stop time from the cluster's FaultPlan
	// (0 = none): the first charge whose accrual reaches it panics with
	// a RankFailure. Every stream of a failing rank inherits the time —
	// each timeline halts when its own clock crosses it.
	failAt float64

	// cl is the owning cluster.
	cl *Cluster
	// t is the scheduler task running this timeline: it parks on it and
	// its peers ready it, the one way the rendezvous, stage queues and
	// stream joins block.
	t *sim.Task
	// sends are this timeline's queue sends awaiting their commit, in
	// program order (see gate).
	sends []pendingSend
	// waitIn names what the timeline is parked in, for the cluster's
	// drain: a collective (on waitComm), "Queue.Recv" or "Join". Both
	// are empty while the timeline runs.
	waitIn   string
	waitComm *Comm
}

// pendingSend is a Queue.Send awaiting its commit: the queue and the
// sender's clock at the send.
type pendingSend struct {
	q  committer
	at float64
}

// committer is a queue seen by its sender's flush: commit performs the
// oldest staged send, readying a parked receiver at the given clock.
type committer interface{ commit(at float64) }

// gate opens a commit section on r's timeline, then commits the queue
// sends r made since its last one, in program order. Every commit
// section opens here, so sends commit before anything else r does
// under the turn. That is exact: in the serial event loop nothing runs
// between a send and the segment's next commit section but the
// segment's own section-free work, so each commit readies the same
// receiver at the same key, with the same sequence number, as a send
// committed on the spot.
func (r *Rank) gate() {
	r.t.Gate()
	for _, p := range r.sends {
		p.q.commit(p.at)
	}
	clear(r.sends)
	r.sends = r.sends[:0]
}

// park ends r's segment until a peer readies it, recording for the
// drain what it waits in: the named collective on comm, or the named
// primitive (comm nil).
func (r *Rank) park(what string, comm *Comm) {
	r.waitIn, r.waitComm = what, comm
	r.t.Park()
	r.waitIn, r.waitComm = "", nil
}

// acct is the phase/traffic accounting shared across a rank's streams.
// Streams run as separate tasks, so shared updates take the mutex;
// each stream's clock is task-local and needs no lock.
// Phase names are interned to index-addressed slots (phaseIdx) so the
// per-charge path performs no map operations; the float64 second
// accumulators themselves live on each stream (see Rank.phaseTotal) —
// only the exact integer counters are accumulated shared, because
// integer addition commutes and float addition's rounding does not.
type acct struct {
	//gnnvet:allow commitseam — integer counters commute, phase slots are folded by name, and streams are listed by ForkStream inside its commit section
	mu         sync.Mutex
	phaseIdx   map[string]int // phase name -> slot
	phaseNames []string       // slot -> phase name
	bytesSent  int64
	opCount    map[string]int64    // collective name -> invocations
	opBytes    map[string]int64    // collective name -> bytes sent
	linkBytes  map[string][3]int64 // phase -> wire bytes injected per Link tier
	streams    []*Rank             // forked streams (main rank excluded)
	// drivers binds each communicator the rank has issued a collective
	// on to the stream that drives it (first use wins); a second stream
	// is a programming error that would interleave the rendezvous. Only
	// arrive touches it, inside its commit section.
	drivers map[*Comm]string
}

func newAcct() *acct {
	return &acct{
		phaseIdx:  map[string]int{},
		opCount:   map[string]int64{},
		opBytes:   map[string]int64{},
		linkBytes: map[string][3]int64{},
		drivers:   map[*Comm]string{},
	}
}

// slotFor interns a phase name, returning its accumulator index.
func (a *acct) slotFor(name string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i, ok := a.phaseIdx[name]; ok {
		return i
	}
	i := len(a.phaseNames)
	a.phaseIdx[name] = i
	a.phaseNames = append(a.phaseNames, name)
	return i
}

// newStream forks a concurrent execution timeline for ForkStream: the
// returned handle shares this rank's identity, cost model and
// accounting buckets but owns an independent clock starting at the
// caller's current time. Charges and collectives issued on the handle
// advance only its own clock; phase totals accrue to the shared
// buckets. A communicator must not be used by two streams of the same
// rank concurrently. The handle has no task until it is spawned.
func (r *Rank) newStream(name string) *Rank {
	s := &Rank{
		ID:     r.ID,
		N:      r.N,
		model:  r.model,
		clock:  r.clock,
		phases: []string{"default"},
		stream: name,
		acct:   r.acct,
		cont:   r.cont,
		failAt: r.failAt,
		cl:     r.cl,
	}
	s.rebuildPhaseSlots()
	r.acct.mu.Lock()
	r.acct.streams = append(r.acct.streams, s)
	r.acct.mu.Unlock()
	return s
}

// WaitUntil advances the clock to t if it is behind (a synchronization
// stall, e.g. waiting for a prefetch stream to finish an item). The
// stall is charged to the current phase, not as communication.
func (r *Rank) WaitUntil(t float64) {
	if t > r.clock {
		r.advance(t-r.clock, false)
	}
}

// countOp records one collective invocation and its sent bytes under
// the operation name (for traffic breakdowns).
func (r *Rank) countOp(name string, bytes int64) {
	a := r.acct
	a.mu.Lock()
	a.opCount[name]++
	a.opBytes[name] += bytes
	a.bytesSent += bytes
	a.mu.Unlock()
}

// countLink records wire bytes this rank injected on an interconnect
// tier, booked under the current (innermost) phase — the per-link,
// per-phase traffic accounting the charging path and ChargeLink both
// feed.
func (r *Rank) countLink(l Link, bytes int64) {
	if bytes <= 0 {
		return
	}
	phase := r.Phase()
	a := r.acct
	a.mu.Lock()
	lb := a.linkBytes[phase]
	lb[l] += bytes
	a.linkBytes[phase] = lb
	a.mu.Unlock()
}

// SetPhase switches the bucket subsequent charges accrue to (replaces
// the top of the phase stack).
func (r *Rank) SetPhase(name string) {
	r.phases[len(r.phases)-1] = name
	r.rebuildPhaseSlots()
}

// PushPhase opens a nested phase level. Charges accrue to all levels.
func (r *Rank) PushPhase(name string) {
	r.phases = append(r.phases, name)
	r.rebuildPhaseSlots()
}

// PopPhase closes the innermost phase level.
func (r *Rank) PopPhase() {
	if len(r.phases) == 1 {
		panic("cluster: PopPhase on base level")
	}
	r.phases = r.phases[:len(r.phases)-1]
	r.rebuildPhaseSlots()
}

// rebuildPhaseSlots recomputes the distinct-phase accumulator indices
// for the current stack (stack order, first occurrence wins — the same
// set and order the per-charge loop historically derived on the fly).
func (r *Rank) rebuildPhaseSlots() {
	r.phaseSlots = r.phaseSlots[:0]
	for i, name := range r.phases {
		dup := false
		for _, prev := range r.phases[:i] {
			if prev == name {
				dup = true
				break
			}
		}
		if !dup {
			r.phaseSlots = append(r.phaseSlots, r.acct.slotFor(name))
		}
	}
}

// Phase returns the current (innermost) phase name.
func (r *Rank) Phase() string { return r.phases[len(r.phases)-1] }

// Clock returns the stream's simulated time in seconds.
func (r *Rank) Clock() float64 { return r.clock }

// MaxClock returns the rank's overall simulated time: the maximum
// final clock over the main timeline and every forked stream — the
// overlap-aware aggregation (concurrent streams max, not sum).
func (r *Rank) MaxClock() float64 {
	m := r.clock
	r.acct.mu.Lock()
	for _, s := range r.acct.streams {
		if s.clock > m {
			m = s.clock
		}
	}
	r.acct.mu.Unlock()
	return m
}

// advance adds dt simulated seconds to the clock and every phase on
// the stack; comm marks the time as communication. Phase seconds
// accrue into the stream's private accumulators — no lock, and no
// scheduler-dependent interleaving of float additions.
func (r *Rank) advance(dt float64, comm bool) {
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("cluster: negative or NaN time advance %v", dt))
	}
	r.clock += dt
	for _, s := range r.phaseSlots {
		if s >= len(r.phaseTotal) {
			r.growPhases(s + 1)
		}
		r.phaseTotal[s] += dt
		r.phaseTouched[s] = true
		if comm {
			r.phaseComm[s] += dt
		}
	}
	if r.failAt > 0 && r.clock >= r.failAt {
		// Fail-stop: this timeline halts at the first charge that
		// reaches its planned failure time. Disarm before panicking so
		// a charge during unwinding cannot re-fire, and panic with the
		// planned time (not the overshot clock) so the restart driver
		// can retire exactly the plan entry that fired. The cluster
		// recovers the panic into the rank's error slot; peers
		// blocked on this rank's collectives observe a poisoned
		// rendezvous wrapping ErrRankFailed.
		at := r.failAt
		r.failAt = 0
		panic(&RankFailure{Rank: r.ID, At: at})
	}
}

// growPhases extends the stream-local accumulators to hold n slots.
func (r *Rank) growPhases(n int) {
	for len(r.phaseTotal) < n {
		r.phaseTotal = append(r.phaseTotal, 0)
		r.phaseComm = append(r.phaseComm, 0)
		r.phaseTouched = append(r.phaseTouched, false)
	}
}

// ChargeSparse bills ops irregular operations (SpGEMM multiply-adds,
// sampling draws, gathers) at the GPU sparse throughput.
func (r *Rank) ChargeSparse(ops int64) { r.ChargeSparseOn(GPU, ops) }

// ChargeSparseOn bills irregular operations on the given device.
func (r *Rank) ChargeSparseOn(d Device, ops int64) {
	r.advance(float64(ops)/r.model.SparseOps[d], false)
}

// ChargeDense bills flops dense multiply-add pairs at GPU dense
// throughput.
func (r *Rank) ChargeDense(flops int64) { r.ChargeDenseOn(GPU, flops) }

// ChargeDenseOn bills dense flops on the given device.
func (r *Rank) ChargeDenseOn(d Device, flops int64) {
	r.advance(float64(flops)/r.model.DenseFlops[d], false)
}

// ChargeMem bills a streaming memory traffic of the given bytes at GPU
// memory bandwidth.
func (r *Rank) ChargeMem(bytes int64) { r.ChargeMemOn(GPU, bytes) }

// ChargeMemOn bills memory traffic on the given device.
func (r *Rank) ChargeMemOn(d Device, bytes int64) {
	r.advance(float64(bytes)/r.model.MemBW[d], false)
}

// ChargeKernels bills n fixed kernel-launch overheads. Per-minibatch
// sampling pays O(layers) of these per batch; bulk sampling pays
// O(layers) per k batches — the amortization at the heart of the
// paper's Section 4.
func (r *Rank) ChargeKernels(n int) {
	r.advance(float64(n)*r.model.KernelLaunch, false)
}

// ChargeLink bills a point transfer of the given bytes over the given
// tier, e.g. PCIe traffic for UVA sampling. Counted as communication
// and recorded in the per-link byte counters. Under a contention
// topology the transfer is a flow through the rank's physical links
// and shares them with whatever else is in flight.
func (r *Rank) ChargeLink(l Link, bytes int64) {
	r.countLink(l, bytes)
	if ct := r.cont; ct != nil {
		r.gate()
		fin := ct.transact([]flowReq{{
			start: r.model.wireEntry(r.clock, l),
			bytes: float64(bytes),
			links: ct.linksFor(r.ID, l),
		}})
		r.advance(fin[0]-r.clock, true)
		return
	}
	r.advance(r.model.wireTime(l, bytes), true)
}

// Stats is an immutable snapshot of a rank's accounting.
type Stats struct {
	// Clock is the rank's overall simulated time: the maximum over
	// its concurrent streams (not their sum).
	Clock      float64
	PhaseTotal map[string]float64
	PhaseComm  map[string]float64
	BytesSent  int64
	// OpCount and OpBytes break communication down by collective.
	OpCount map[string]int64
	OpBytes map[string]int64
	// LinkBytes breaks the wire traffic this rank injected down by
	// phase and interconnect tier (indexed by Link).
	LinkBytes map[string][3]int64
}

func (r *Rank) stats() Stats {
	clock := r.MaxClock()
	a := r.acct
	a.mu.Lock()
	defer a.mu.Unlock()
	// Fold the per-stream phase accumulators: main timeline first, then
	// forked streams in creation order — a fixed summation order, so
	// the folded totals are bit-deterministic. Only charged phases
	// surface (a phase merely set, never charged, historically created
	// no bucket).
	nSlots := len(a.phaseNames)
	total := make([]float64, nSlots)
	comm := make([]float64, nSlots)
	touched := make([]bool, nSlots)
	for _, s := range append([]*Rank{r}, a.streams...) {
		for i := range s.phaseTotal {
			total[i] += s.phaseTotal[i]
			comm[i] += s.phaseComm[i]
			touched[i] = touched[i] || s.phaseTouched[i]
		}
	}
	pt := make(map[string]float64, nSlots)
	pc := make(map[string]float64, nSlots)
	for i, name := range a.phaseNames {
		if !touched[i] {
			continue
		}
		pt[name] = total[i]
		pc[name] = comm[i]
	}
	oc := make(map[string]int64, len(a.opCount))
	for k, v := range a.opCount {
		oc[k] = v
	}
	ob := make(map[string]int64, len(a.opBytes))
	for k, v := range a.opBytes {
		ob[k] = v
	}
	lb := make(map[string][3]int64, len(a.linkBytes))
	for k, v := range a.linkBytes {
		lb[k] = v
	}
	return Stats{Clock: clock, PhaseTotal: pt, PhaseComm: pc, BytesSent: a.bytesSent,
		OpCount: oc, OpBytes: ob, LinkBytes: lb}
}

// Result summarizes a simulated run.
type Result struct {
	// SimTime is the bulk-synchronous makespan: the maximum final
	// simulated clock across ranks (per rank, the max over streams).
	SimTime float64
	// Ranks holds per-rank accounting indexed by rank id.
	Ranks []Stats
	// PhysLinks holds per-physical-link traffic summaries when the run
	// charged under a contention topology (nil for the pure α–β model).
	PhysLinks []PhysLinkStat
	// LedgerPeakSpans is the contention ledger's high-water committed
	// span count over the run (0 for the pure α–β model) — the memory
	// the progressive-filling solver had to carry, recorded by the
	// perf-regression suite.
	LedgerPeakSpans int
}

// Phase returns the maximum time any rank spent in the named phase.
func (res *Result) Phase(name string) float64 {
	max := 0.0
	for _, s := range res.Ranks {
		if v := s.PhaseTotal[name]; v > max {
			max = v
		}
	}
	return max
}

// PhaseComm returns the maximum communication time any rank spent in
// the named phase.
func (res *Result) PhaseComm(name string) float64 {
	max := 0.0
	for _, s := range res.Ranks {
		if v := s.PhaseComm[name]; v > max {
			max = v
		}
	}
	return max
}

// LinkTraffic sums the wire bytes injected per interconnect tier
// across all ranks and phases: total traffic, not a per-rank maximum,
// because link bytes add up on the fabric.
func (res *Result) LinkTraffic() [3]int64 {
	var out [3]int64
	for _, s := range res.Ranks {
		for _, lb := range s.LinkBytes {
			for l, v := range lb {
				out[l] += v
			}
		}
	}
	return out
}

// Cluster is a set of ranks sharing a cost model. Communicators are
// created from the cluster before Run and shared by all ranks.
type Cluster struct {
	N     int
	Model CostModel

	// sched runs the timelines of the latest Run (nil before the first).
	sched *sim.Sched

	// cont is the physical-link contention ledger, created once when
	// the model carries a Topology and reset per Run; nil keeps the
	// pure α–β charging path.
	cont *contention
	// done marks ranks whose Run bodies have returned, each written by
	// its own rank's exit; the drain reads it to find collectives that
	// can never complete.
	done []bool
	mu   sync.Mutex
	// failures records, per terminated rank, the root injected
	// fail-stop behind its termination in the current Run (nil when
	// none fired) — the rank's own fail-stop, or, for a rank that
	// aborted because a peer's failure poisoned its collective, that
	// peer's failure. The drain consults it to diagnose an
	// abandoned collective as a recoverable fault abort rather than a
	// bug — including cascades, where the abandoning rank never failed
	// itself — and Run returns the earliest root failure.
	failures map[int]*RankFailure
}

// drain is the scheduler's drain hook, called when no timeline can
// run. Every collective that waits on a member whose body has returned
// can never complete, so it poisons each one's rendezvous, and the
// members parked there abort with the diagnostic. It walks the parked
// timelines in a fixed order — ranks by id, each rank's timelines in
// creation order — so the poisons ready their members in the same
// order at every worker count. A cascade (an aborting member strands a
// collective of its own) is found by the next drain. With no such
// collective the run is deadlocked, and drain panics naming every
// parked timeline. ranks are the run's main timelines, by id.
func (c *Cluster) drain(ranks []*Rank) bool {
	var parked []*Rank
	poisoned := false
	for _, r := range ranks {
		for _, tl := range append([]*Rank{r}, r.acct.streams...) {
			if tl.waitIn != "" {
				parked = append(parked, tl)
			}
			if tl.waitComm != nil && tl.waitComm.abandon() {
				poisoned = true
			}
		}
	}
	if poisoned {
		return true
	}
	what := make([]string, len(parked))
	for i, tl := range parked {
		what[i] = fmt.Sprintf("rank %d stream %q in %s", tl.ID, tl.stream, tl.waitIn)
		if w := tl.waitComm; w != nil {
			what[i] += fmt.Sprintf(" on comm %v (dup %q)", w.members, w.key)
		}
	}
	panic(fmt.Sprintf("cluster: deadlock: %d timelines parked with no pending events [backend=des]: %s",
		len(parked), strings.Join(what, "; ")))
}

// spawn starts r's timeline as a new scheduler task running fn, ready
// at r's clock. Called before the scheduler runs (Run) or inside a
// commit section (ForkStream).
func (c *Cluster) spawn(r *Rank, fn func()) {
	c.sched.Spawn(r.ID, func(t *sim.Task) {
		r.t = t
		fn()
	}).Ready(r.clock)
}

// New returns a cluster of n ranks under the given cost model,
// completed by CostModel.OrPerlmutter. A model carrying a Topology
// panics here if the topology is invalid (callers with error returns
// validate via Topology.Validate first).
func New(n int, model CostModel) *Cluster {
	if n <= 0 {
		panic("cluster: need at least one rank")
	}
	c := &Cluster{N: n, Model: model.OrPerlmutter()}
	if model.Topology != nil {
		c.cont = newContention(c.Model, n)
	}
	return c
}

// Run executes body once per rank concurrently and returns per-rank
// accounting. Ranks must all reach every collective they participate
// in; a body that returns (error or not) while peers wait inside a
// collective can never satisfy that collective, so once no timeline
// can run, the scheduler's drain poisons the rendezvous and the waiting
// ranks panic with a diagnostic (real MPI would hang). Bodies should
// still return errors only at synchronized points. Any streams a body
// forks must be joined (their tasks finished) before the body returns.
func (c *Cluster) Run(body func(r *Rank) error) (*Result, error) {
	// Per-run state starts fresh, so a cluster can host consecutive
	// Run calls (the stream bindings live in each run's ranks).
	c.done = make([]bool, c.N)
	c.failures = nil
	if c.cont != nil {
		c.cont.reset() // fresh simulated timeline: no stale occupancy
	}
	ranks := make([]*Rank, c.N)
	for i := range ranks {
		ranks[i] = &Rank{
			ID:     i,
			N:      c.N,
			model:  &c.Model,
			phases: []string{"default"},
			acct:   newAcct(),
			cont:   c.cont,
			cl:     c,
		}
		ranks[i].rebuildPhaseSlots()
		ranks[i].failAt = c.Model.Faults.failAt(i)
	}
	errs := make([]error, c.N)
	// One timeline per rank, started at t=0 in rank order.
	c.sched = sim.New()
	c.sched.Drain = func() bool { return c.drain(ranks) }
	for _, r := range ranks {
		c.spawn(r, func() {
			errs[r.ID] = c.runBody(body, r)
			c.done[r.ID] = true
		})
	}
	c.sched.Run()
	// Error selection: a bug-class error wins (first by rank order, the
	// historical behavior); otherwise, when every error is fault-class,
	// return the earliest RankFailure — the root cause a restart driver
	// retires from the plan — rather than whichever survivor's abort
	// error happens to sit at the lowest rank id.
	var fault error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrRankFailed) {
			return nil, err
		}
		if fault == nil {
			fault = err
		}
	}
	if fault != nil {
		if rf := c.earliestFailure(); rf != nil {
			return nil, rf
		}
		return nil, fault
	}
	res := &Result{Ranks: make([]Stats, c.N)}
	for i, r := range ranks {
		res.Ranks[i] = r.stats()
		if res.Ranks[i].Clock > res.SimTime {
			res.SimTime = res.Ranks[i].Clock
		}
	}
	if c.cont != nil {
		res.PhysLinks = c.cont.stats()
		res.LedgerPeakSpans = c.cont.peak()
	}
	return res, nil
}

// AdvanceBy adds dt simulated seconds to the clock under the current
// phase (compute, not communication). It is the escape hatch for
// schedulers that compute durations out-of-band; dt must be >= 0.
//
//gnnvet:allow deadexport — the engine and cluster tests script stage durations with it
func (r *Rank) AdvanceBy(dt float64) { r.advance(dt, false) }
