package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster/sim"
	"repro/internal/dense"
)

// Comm is a communicator over a subset of the cluster's ranks, like an
// MPI communicator. All members must call each collective the same
// number of times in the same order, and a communicator may be driven
// by at most one stream of each member rank (enforced; see ForStream
// for the NCCL-style duplication that lets concurrent streams issue
// collectives safely).
//
// Every collective routes its time and traffic through the single
// charging path (chargeCollective), parameterized by the cost model's
// per-op algorithm table (CostModel.Collectives): FlatTree reproduces
// the paper's closed forms, Ring and Pairwise trade latency against
// bandwidth, and Hierarchical runs the two-level sum all-reduce.
type Comm struct {
	cl      *Cluster
	members []int       // global rank ids, ascending
	index   map[int]int // global rank id -> local index
	rv      *rendezvous
	link    Link

	// Per-stream clones (NCCL-style communicator duplication). The
	// clone map lives on the base communicator; clones point back at it
	// so Dup composes regardless of receiver.
	base  *Comm  // nil for a base communicator
	key   string // dup key ("" for the base)
	dupMu sync.Mutex
	dups  map[string]*Comm

	// lazily built sub-communicators for the hierarchical all-reduce.
	hierOnce    sync.Once
	hierIntra   map[int]*Comm
	hierLeaders *Comm

	// all is 0..Size()−1, built on the first dense AllToAllv.
	allOnce sync.Once
	all     []int
}

// NewComm creates a communicator over the given global rank ids.
// Call it once (typically before Cluster.Run) and share the value.
func (c *Cluster) NewComm(members []int) *Comm {
	if len(members) == 0 {
		panic("cluster: empty communicator")
	}
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	idx := make(map[int]int, len(sorted))
	for i, m := range sorted {
		if m < 0 || m >= c.N {
			panic(fmt.Sprintf("cluster: member %d outside %d ranks", m, c.N))
		}
		if _, dup := idx[m]; dup {
			panic(fmt.Sprintf("cluster: duplicate member %d", m))
		}
		idx[m] = i
	}
	return &Comm{
		cl:      c,
		members: sorted,
		index:   idx,
		rv:      newRendezvous(len(sorted)),
		link:    c.Model.worstLink(sorted),
	}
}

// World returns a communicator over all ranks.
func (c *Cluster) World() *Comm {
	all := make([]int, c.N)
	for i := range all {
		all[i] = i
	}
	return c.NewComm(all)
}

// Dup returns the clone of this communicator dedicated to the given
// key, creating it on first use (NCCL-style communicator duplication).
// A clone shares the base communicator's members, link tier and
// cluster but owns its own rendezvous, so collectives issued on
// different clones never interleave. All member ranks asking for the
// same key receive the same clone; the empty key returns the base
// communicator. Dup on a clone delegates to its base, so the result
// depends only on the key, never on the receiver.
func (c *Comm) Dup(key string) *Comm {
	base := c
	if c.base != nil {
		base = c.base
	}
	if key == "" {
		return base
	}
	base.dupMu.Lock()
	defer base.dupMu.Unlock()
	if d, ok := base.dups[key]; ok {
		return d
	}
	d := &Comm{
		cl:      base.cl,
		members: base.members,
		index:   base.index,
		rv:      newRendezvous(len(base.members)),
		link:    base.link,
		base:    base,
		key:     key,
	}
	if base.dups == nil {
		base.dups = map[string]*Comm{}
	}
	base.dups[key] = d
	return d
}

// ForStream returns the clone of this communicator dedicated to the
// rank handle's stream (Dup keyed by the stream name). Collective-
// bearing code that may run on a forked stream — a prefetching
// pipeline stage, say — calls this so each stream of a rank drives its
// own clone: the main timeline gets the base communicator, and every
// same-named stream across the member ranks meets on the same clone.
func (c *Comm) ForStream(r *Rank) *Comm { return c.Dup(r.stream) }

// checkDriver enforces the one-driving-stream-per-member-rank
// invariant: the first collective a rank issues on this communicator
// binds it to that rank's stream for the run. Caller is arrive, inside
// its commit section.
func (c *Comm) checkDriver(r *Rank) {
	prev, ok := r.acct.drivers[c]
	if !ok {
		r.acct.drivers[c] = r.stream
		return
	}
	if prev != r.stream {
		panic(fmt.Sprintf("cluster: comm %v (dup %q) driven by two streams of rank %d (%q then %q); duplicate it per stream with ForStream/Dup",
			c.members, c.key, r.ID, prev, r.stream))
	}
}

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// LocalIndex returns the rank's index within the communicator.
func (c *Comm) LocalIndex(r *Rank) int {
	i, ok := c.index[r.ID]
	if !ok {
		panic(fmt.Sprintf("cluster: rank %d not a member of communicator %v", r.ID, c.members))
	}
	return i
}

// Members returns the member rank ids (ascending). Do not modify.
func (c *Comm) Members() []int { return c.members }

// Tier returns the interconnect tier this communicator's collectives
// charge at (the worst link among its member pairs).
func (c *Comm) Tier() Link { return c.link }

// rendezvous synchronizes one collective call across n participants
// with a generation counter so back-to-back collectives don't race.
// It is poisoned on two classes of would-be deadlocks, so every
// participant panics with a diagnostic instead of hanging: mismatched
// collective sequences (members calling different collectives on the
// same communicator), which arrive detects, and abandoned collectives
// (a member's rank body returned while peers wait for it), which the
// cluster's drain finds once no timeline can run.
type rendezvous struct {
	mu      sync.Mutex
	n       int
	arrived int
	gen     uint64
	op      string // collective name of the in-flight generation
	waiting []bool // member indices arrived in the current generation
	// entry is the latest entry clock of the in-flight generation, kept
	// as members arrive; outEntry is the completed generation's.
	entry    float64
	outEntry float64
	// recs is the ring every collective deposits its contributions into
	// and reads its result from: generation g's records are recs[g%3],
	// one per record type (see record). A member reads generation g's
	// records until its next collective on the communicator returns (a
	// result may feed that collective). Record g is rewritten no sooner
	// than by g+3, whose first arrival needs every member at g+2, so
	// every member has returned from g+1: uncontended, that is its next
	// collective. Contended, each collective takes two generations, and
	// the second (contendedFinish) deposits only into its flow table,
	// which it reads before returning and no first round uses, so a
	// first round's records wait for g+6. The hierarchical leaders'
	// total is read by their node peers from the node broadcast, before
	// their next node collective, which each leader joins before it can
	// arrive at the leaders' communicator again.
	recs   [3][]any
	failed error // poisoned: every current and future participant panics
	// parked are the members waiting on the in-flight generation; the
	// last arriver — or a poison — readies them and clears the list.
	parked []parkedMember
}

// parkedMember is one parked member plus the simulated time to ready it
// at (its entry clock; collectives complete at max entry + cost, so
// the wake time only orders events, never changes results).
type parkedMember struct {
	t     *sim.Task
	clock float64
}

func newRendezvous(n int) *rendezvous {
	return &rendezvous{n: n, waiting: make([]bool, n)}
}

// record returns the in-flight generation's record of type R, adding it
// to the generation's ring slot on first use. Caller holds rv.mu.
func record[R any](rv *rendezvous) *R {
	ring := &rv.recs[rv.gen%3]
	for _, x := range *ring {
		if p, ok := x.(*R); ok {
			return p
		}
	}
	p := new(R)
	*ring = append(*ring, p)
	return p
}

// table is a generation's contribution table for payload type T: member
// i's value and its size in bytes.
type table[T any] struct {
	vals  []T
	bytes []int
}

// deposit records member idx's contribution in the generation's table
// for T and returns the table. Caller holds rv.mu (at the member's
// arrival).
func deposit[T any](rv *rendezvous, idx int, val T, bytes int) *table[T] {
	t := record[table[T]](rv)
	if t.vals == nil {
		t.vals, t.bytes = make([]T, rv.n), make([]int, rv.n)
	}
	t.vals[idx], t.bytes[idx] = val, bytes
	return t
}

// release readies every parked member at its entry clock, in arrival
// order. Caller holds rv.mu.
func (rv *rendezvous) release() {
	for _, p := range rv.parked {
		p.t.Ready(p.clock)
	}
	rv.parked = rv.parked[:0]
}

// poison marks the rendezvous failed and wakes every parked member so
// callers panic with the recorded error instead of hanging. Caller
// holds rv.mu.
func (c *Comm) poison(err error) {
	c.rv.failed = err
	c.rv.release()
}

// diag appends the scheduler's load to a deadlock diagnostic: a
// drained queue with parked ranks is the classic deadlock symptom, a
// deep one points at livelock in the simulated program, and the running
// and gate-waiting segment counts show what was in flight beside the
// diagnosing one.
func (c *Comm) diag() string {
	queued, running, waiting := c.cl.sched.Load()
	return fmt.Sprintf(" [%d queued events, %d segments running, %d waiting for the gate]",
		queued, running, waiting)
}

// exchangeTransform runs one generation of the named collective: the
// caller arrives with its entry clock and, once every participant has
// arrived, gets the latest entry clock among them: collectives are bulk
// synchronous, so everyone leaves no earlier than the slowest arriver
// plus the modeled cost. A participant whose collective name disagrees
// with the in-flight one poisons the rendezvous and panics all
// participants; so does the drain, for peers that can never arrive
// because their rank bodies already returned.
//
// deposit runs at the caller's arrival, under the rendezvous lock, with
// the caller's member index: it writes the caller's contribution into
// the generation's records (deposit, fold.put), where every member
// reads the result. The last arriver then runs transform (under the
// same lock, so the call is atomic with respect to this communicator):
// the all-to-allv buckets the messages there, and the contention
// charging path solves one collective's member flows in a single ledger
// transaction. Either hook may be nil.
//
// With yield set, a last arriver on an uncontended cluster ends its
// segment at the rendezvous: it readies itself at its entry clock, like
// every member it wakes, and parks, so the work it does after the
// collective no longer holds the commit turn. Contended runs never
// yield, which keeps their commit order (and with it the ledger's
// outcome) as it was.
func (c *Comm) exchangeTransform(r *Rank, op string, clock float64, deposit func(idx int), transform func(), yield bool) float64 {
	entry, gen, done, yielded := c.arrive(r, op, clock, deposit, transform, yield)
	if yielded {
		r.t.Park()
	}
	if done {
		return entry
	}
	// One wake suffices — only generation completion or poison readies
	// a parked member, and the next generation cannot finish (it needs
	// this very rank) before it resumes, so rv.outEntry is still ours
	// then. Both outcomes were settled by the waker's commit, so reading
	// them needs no commit section: a completed generation returns even
	// if a later one has been poisoned since (this member meets the
	// poison at its next arrival), and a generation poisoned while
	// incomplete panics with the error that woke it.
	r.park(op, c)
	rv := c.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.gen != gen {
		return rv.outEntry
	}
	if rv.failed != nil {
		panic(rv.failed)
	}
	panic(fmt.Sprintf("cluster: spurious wake on comm %v (dup %q) during %s", c.members, c.key, op))
}

// arrive is exchangeTransform's commit section. The last arriver
// completes the generation, readies the parked members (and itself,
// when it yields) and gets the entry clock with done set; an earlier
// one is recorded as parked and gets the generation it must park for.
// The unlock is deferred so every diagnostic panic below releases the
// rendezvous.
func (c *Comm) arrive(r *Rank, op string, clock float64, deposit func(idx int), transform func(), yield bool) (entry float64, gen uint64, done, yielded bool) {
	r.gate()
	c.checkDriver(r)
	idx := c.LocalIndex(r)
	rv := c.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.failed != nil {
		panic(rv.failed)
	}
	if rv.arrived == 0 {
		rv.op = op
		rv.entry = 0
	} else if rv.op != op {
		err := fmt.Errorf("cluster: mismatched collectives on comm %v (dup %q): rank %d called %s while %s is in flight%s",
			c.members, c.key, r.ID, op, rv.op, c.diag())
		c.poison(err)
		panic(err)
	}
	if deposit != nil {
		deposit(idx)
	}
	rv.waiting[idx] = true
	rv.arrived++
	if clock > rv.entry {
		rv.entry = clock
	}
	if rv.arrived < rv.n {
		rv.parked = append(rv.parked, parkedMember{t: r.t, clock: clock})
		return 0, rv.gen, false, false
	}
	if transform != nil {
		// A transform panic fires with every member arrived, so no
		// member is missing for the drain to find: poison the rendezvous
		// here before propagating, and the n-1 parked members panic with
		// the diagnostic instead of waiting forever.
		func() {
			defer func() {
				if p := recover(); p != nil {
					err := fmt.Errorf("cluster: %s transform panicked on comm %v (dup %q): %v%s",
						op, c.members, c.key, p, c.diag())
					c.poison(err)
					panic(err)
				}
			}()
			transform()
		}()
	}
	rv.outEntry = rv.entry
	rv.arrived = 0
	rv.op = ""
	for i := range rv.waiting {
		rv.waiting[i] = false
	}
	rv.gen++
	// Completion time is charged by each member itself, so the wake
	// time only orders events.
	rv.release()
	yielded = yield && c.cl.cont == nil
	if yielded {
		r.t.Ready(clock)
	}
	return rv.outEntry, rv.gen, true, yielded
}

// abandon poisons the in-flight collective if a member that has not
// arrived has finished its rank body (the first such in member order),
// and reports whether it did. The drain calls it while no timeline
// runs.
func (c *Comm) abandon() bool {
	rv := c.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.failed != nil {
		return false
	}
	for i, m := range c.members {
		if !rv.waiting[i] && c.cl.done[m] {
			c.poison(c.abandonErr(m, rv.op))
			return true
		}
	}
	return false
}

// abandonErr is the shared diagnostic for a collective a peer can
// never join. When the peer died to an injected fail-stop the error is
// a recoverable fault abort (wraps ErrRankFailed — the collective
// timeout/abort semantics surviving ranks observe); otherwise it is
// the bug-class deadlock diagnostic that crashes as before.
func (c *Comm) abandonErr(m int, op string) error {
	if f := c.cl.failureOf(m); f != nil {
		// Wrapping f itself (not just the sentinel) keeps the root
		// *RankFailure reachable via errors.As, so a survivor's abort
		// error records the same root when IT abandons collectives in
		// turn — cascades stay fault-class all the way down.
		if f.Rank != m {
			// Cascade: m never failed itself — it aborted on a peer's
			// fail-stop elsewhere and so will never join here.
			return fmt.Errorf("cluster: collective aborted on comm %v (dup %q): rank %d aborted before joining %s%s: %w",
				c.members, c.key, m, op, c.diag(), f)
		}
		return fmt.Errorf("cluster: collective aborted on comm %v (dup %q): rank %d died before joining %s%s: %w",
			c.members, c.key, m, op, c.diag(), f)
	}
	return fmt.Errorf("cluster: deadlock on comm %v (dup %q): rank %d finished without joining %s%s",
		c.members, c.key, m, op, c.diag())
}

func log2Ceil(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// finish sets the rank's clock to the synchronized completion time and
// books the delta as communication in the current phase.
func (c *Comm) finish(r *Rank, doneAt float64) {
	if doneAt < r.clock {
		doneAt = r.clock
	}
	r.advance(doneAt-r.clock, true)
}

// Broadcast sends root's value to every member. bytes is the payload
// size for cost accounting; FlatTree charges the binomial tree
// (α + β·bytes)·⌈log2 n⌉, Ring the pipelined (n−1)·α + β·bytes. The
// value is shared, not copied: receivers must treat it as read-only.
func Broadcast[T any](c *Comm, r *Rank, root int, val T, bytes int) T {
	return broadcastAlg(c, r, root, val, bytes, c.allReduceAlg())
}

// broadcastAlg is Broadcast pinned to an algorithm; the hierarchical
// all-reduce uses it to keep its intra-node stages on the flat tree
// regardless of the table (Hierarchical itself maps to FlatTree here).
func broadcastAlg[T any](c *Comm, r *Rank, root int, val T, bytes int, alg CollectiveAlgorithm) T {
	if alg != Ring {
		alg = FlatTree
	}
	var t *table[T]
	entry := c.exchangeTransform(r, "broadcast", r.clock,
		func(idx int) { t = deposit(c.rv, idx, val, bytes) }, nil, false)
	c.chargeCollective(r, "broadcast", entry, broadcastCost(c, alg, t.bytes[root], c.LocalIndex(r) == root))
	return t.vals[root]
}

// AllGather collects every member's value; the result is indexed by
// local member index. FlatTree charges recursive doubling
// α·⌈log2 n⌉ + β·(total bytes); Ring charges (n−1)·α with the same β
// term. The result is the generation's contribution table: shared and
// read-only, valid through the caller's next collective on c and no
// longer.
func AllGather[T any](c *Comm, r *Rank, val T, bytes int) []T {
	var t *table[T]
	entry := c.exchangeTransform(r, "allgather", r.clock,
		func(idx int) { t = deposit(c.rv, idx, val, bytes) }, nil, false)
	total := 0
	for _, b := range t.bytes {
		total += b
	}
	c.chargeCollective(r, "allgather", entry, allGatherCost(c, c.allReduceAlg(), total, bytes))
	return t.vals
}

// Gather collects every member's value at root; non-root members
// receive nil. Cost at root α·⌈log2 n⌉ + β·(received bytes); leaves pay
// α + β·(own bytes). Root's result is shared and read-only like
// AllGather's.
func Gather[T any](c *Comm, r *Rank, root int, val T, bytes int) []T {
	var t *table[T]
	entry := c.exchangeTransform(r, "gather", r.clock,
		func(idx int) { t = deposit(c.rv, idx, val, bytes) }, nil, false)
	if c.LocalIndex(r) != root {
		c.chargeCollective(r, "gather", entry, gatherCost(c, 0, bytes, false))
		return nil
	}
	total := 0
	for i, b := range t.bytes {
		if i != root {
			total += b
		}
	}
	c.chargeCollective(r, "gather", entry, gatherCost(c, total, bytes, true))
	return t.vals
}

// Scatter distributes parts[i] from root to member i. Root must pass a
// slice with one entry per member; others pass nil. bytes sizes each
// part for cost accounting. Root's completion charges the total volume
// sent (a sequential ISend loop as in Algorithm 2); each receiver
// charges α + β·(its part).
func Scatter[T any](c *Comm, r *Rank, root int, parts []T, bytes func(T) int) T {
	me := c.LocalIndex(r)
	if me == root && len(parts) != c.Size() {
		panic(fmt.Sprintf("cluster: Scatter root passed %d parts for %d members", len(parts), c.Size()))
	}
	var t *table[[]T]
	entry := c.exchangeTransform(r, "scatter", r.clock,
		func(idx int) { t = deposit(c.rv, idx, parts, 0) }, nil, false)
	rootParts := t.vals[root]
	mine := rootParts[me]
	if me == root {
		total := 0
		for i, p := range rootParts {
			if i != root {
				total += bytes(p)
			}
		}
		c.chargeCollective(r, "scatter", entry, scatterCost(c, total, 0, true))
	} else {
		c.chargeCollective(r, "scatter", entry, scatterCost(c, 0, bytes(mine), false))
	}
	return mine
}

// AllToAllv exchanges parts[i] from each member to member i; the result
// holds the parts addressed to the caller, indexed by sender. It is
// AllToAllvSparse with every member listed as a destination, so the two
// charge alike, and its result is shared and read-only in the same way.
func AllToAllv[T any](c *Comm, r *Rank, parts []T, bytes func(T) int) []T {
	if len(parts) != c.Size() {
		panic(fmt.Sprintf("cluster: AllToAllv passed %d parts for %d members", len(parts), c.Size()))
	}
	// Every member sends one part to every member, so the received parts
	// arrive one per sender, in sender order.
	_, got := AllToAllvSparse(c, r, c.everyMember(), parts, bytes)
	return got
}

// AllToAllvSparse is the all-to-allv: the caller sends parts[k] to
// member dst[k] and receives the parts addressed to it with their
// senders, in ascending sender order (a sender's parts to one member
// keep their order). A member lists only the destinations it sends to,
// so the host work is O(n + messages) per collective: the last arriver
// buckets every message by destination once, inside the rendezvous.
// FlatTree charges the linear exchange (n−1)·α + β·max(bytes sent,
// bytes received); Pairwise charges the Bruck log-round schedule. Both
// exclude the self part. This is the feature-fetching primitive of
// Section 6.2.
//
// The returned slices are shared and read-only, valid through the
// caller's next collective on c (a reply may pass src back as its
// destinations) and no longer.
func AllToAllvSparse[T any](c *Comm, r *Rank, dst []int, parts []T, bytes func(T) int) (src []int, got []T) {
	me := c.LocalIndex(r)
	if len(dst) != len(parts) {
		panic(fmt.Sprintf("cluster: AllToAllvSparse passed %d destinations for %d parts", len(dst), len(parts)))
	}
	sent := 0
	for k, d := range dst {
		if d < 0 || d >= c.Size() {
			panic(fmt.Sprintf("cluster: AllToAllvSparse destination %d outside %d members", d, c.Size()))
		}
		if d != me {
			sent += bytes(parts[k])
		}
	}
	var in *table[sparseMsg[T]]
	var b *buckets[T]
	entry := c.exchangeTransform(r, "alltoallv", r.clock,
		func(idx int) {
			in = deposit(c.rv, idx, sparseMsg[T]{dst, parts}, 0)
			b = record[buckets[T]](c.rv)
		},
		func() { b.fill(in.vals) }, false)
	lo, hi := b.off[me], b.off[me+1]
	src, got = b.src[lo:hi], b.parts[lo:hi]
	recvd := 0
	for k, s := range src {
		if s != me {
			recvd += bytes(got[k])
		}
	}
	c.chargeCollective(r, "alltoallv", entry, allToAllvCost(c, c.allToAllAlg(), sent, recvd))
	return src, got
}

// sparseMsg is one member's all-to-allv contribution.
type sparseMsg[T any] struct {
	dst   []int
	parts []T
}

// buckets is the all-to-allv's delivery table: the messages addressed to
// member d are src[off[d]:off[d+1]] and parts[off[d]:off[d+1]].
type buckets[T any] struct {
	off   []int
	src   []int
	parts []T
}

// fill buckets every member's messages by destination with a counting
// sort, senders in ascending order.
func (b *buckets[T]) fill(contribs []sparseMsg[T]) {
	n := len(contribs)
	b.off = resize(b.off, n+2)
	clear(b.off)
	total := 0
	for _, m := range contribs {
		for _, d := range m.dst {
			b.off[d+2]++
		}
		total += len(m.dst)
	}
	for d := 2; d < n+2; d++ {
		b.off[d] += b.off[d-1]
	}
	// off[d+1] is now bucket d's start; placing advances it to the end,
	// which is bucket d+1's start.
	b.src = resize(b.src, total)
	b.parts = resize(b.parts, total)
	for i, m := range contribs {
		for k, d := range m.dst {
			j := b.off[d+1]
			b.off[d+1]++
			b.src[j], b.parts[j] = i, m.parts[k]
		}
	}
}

// resize returns buf with length n, reallocating only when it is too
// small. The contents are not preserved.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// everyMember returns the local indices 0..n−1, built once per
// communicator: the destination list of a dense all-to-allv.
func (c *Comm) everyMember() []int {
	c.allOnce.Do(func() {
		c.all = make([]int, c.Size())
		for i := range c.all {
			c.all[i] = i
		}
	})
	return c.all
}

// AllReduceSum sums float64 slices elementwise across members; every
// member receives the total. FlatTree charges the paper's T_allreduce
// model α·⌈log2 n⌉ + β·bytes, Ring the reduce-scatter + all-gather
// schedule, and Hierarchical the two-level intra-node / leaders
// composition; every schedule also charges the local-reduction memory
// traffic per the shared charging-path convention. Members copy the
// shared total into caller-owned storage so the result may be scaled
// in place.
func AllReduceSum(c *Comm, r *Rank, x []float64) []float64 {
	return append([]float64(nil), allReduceSum(c, r, x, c.allReduceAlg(), nil)...)
}

// allReduceSum is the sum all-reduce under alg. The elementwise fold is
// identical on every member (+0, then += each contribution in member
// order), so it runs once per collective — O(n·len) total instead of
// the O(n²·len) of every member re-folding all n contributions, the
// dominant simulator cost at large p — and every member receives the
// one shared total: read-only, and valid through the member's next
// collective on c. Like AllReduceGenericInto's, the fold runs off the
// commit turn (see fold). A non-nil apply runs on the total right after
// the fold, exactly once per collective and before any member returns,
// which is what makes the shared-model optimizer step of
// AllReduceSumApply race-free.
//
// Hierarchical composes three such collectives: members reduce within
// their node at the NVLink tier, node leaders (smallest rank per node)
// all-reduce across the network — where apply runs, before any member
// can leave the closing broadcast — then leaders broadcast back within
// the node: the NCCL-style algorithm that keeps the slow tier's traffic
// proportional to the node count rather than the rank count (visible in
// the per-link byte counters). The inner stages are pinned to FlatTree
// so the composition is exactly the paper's, and a communicator that
// sits on one node runs the flat schedule.
func allReduceSum(c *Comm, r *Rank, x []float64, alg CollectiveAlgorithm, apply func(total []float64)) []float64 {
	if alg == Hierarchical {
		alg = FlatTree
		if intra, leaders := c.hierComms(); intra != nil {
			node := intra[c.cl.Model.node(r.ID)]
			partial := allReduceSum(node, r, x, FlatTree, nil)
			var total []float64
			if r.ID == node.members[0] {
				total = allReduceSum(leaders, r, partial, FlatTree, apply)
			}
			// The payload size, not the value, is what the charge depends
			// on, so non-leaders' nil contribution costs the same as ever.
			return broadcastAlg(node, r, 0, total, 8*len(x), FlatTree)
		}
	}
	var f *sumFold
	entry := c.exchangeTransform(r, "allreduce", r.clock, func(idx int) {
		f = record[sumFold](c.rv)
		f.put(c.rv, idx, x, struct{}{}, 8*len(x))
	}, nil, true)
	f.run(c, "allreduce", func() { f.sum(apply) })
	c.chargeCollective(r, "allreduce", entry, allReduceCost(c, alg, f.bytes, 8*len(x)))
	return f.total
}

// AllReduceSumApply is AllReduceSum fused with a post-reduction step
// that must run exactly once per collective across all members — the
// shape of data-parallel training with a shared model: all ranks hold
// identical parameters, so instead of every rank copying the reduced
// gradient and applying an identical optimizer step to its own replica,
// apply(total) runs once, inside the collective, on the one shared sum
// (scale it, step the one shared optimizer/model). The charged time and
// traffic are identical to AllReduceSum on every member; what changes
// is only the host-side work the simulator itself performs, which is
// what the replicated-state dedup removes at large p. apply runs after
// every member has arrived and finishes before any member returns (for
// the hierarchical schedule: in the node-leader stage, before any
// member leaves the broadcast), so mutations of shared training state
// are race-free.
func AllReduceSumApply(c *Comm, r *Rank, x []float64, apply func(total []float64)) {
	allReduceSum(c, r, x, c.allReduceAlg(), apply)
}

// AllReduceGenericInto folds arbitrary values: the fold runs once per
// collective, by a caller-supplied reducer that writes each member's
// private result into that member's destination (the same move
// allReduceSum makes for the elementwise sum — O(n) combines total
// instead of every member redoing all n). reduce receives the
// contributions and the destinations in member order (the fold need
// not be commutative) and must leave every destination holding the
// full fold; each member returns its own destination, free to mutate.
// The fold runs after every member has arrived and completes before any
// member returns — while every member's buffers are quiescent — so a
// caller may contribute and receive epoch-persistent arena storage: the
// property the 1.5D SpGEMM's accumulator and result arenas rely on.
// bytes sizes the caller's contribution; per the shared charging-path
// convention the β term and the local-reduction memory traffic both
// cost on the maximum contribution across members. The fold always runs
// flat, so a Hierarchical selection charges the flat schedule; Ring
// charges the ring schedule. Used for the sparse-matrix all-reduce in
// the 1.5D SpGEMM.
func AllReduceGenericInto[T, D any](c *Comm, r *Rank, val T, bytes int, dest D, reduce func(vals []T, dests []D)) D {
	alg := c.allReduceAlg()
	if alg != Ring {
		alg = FlatTree
	}
	var f *fold[T, D]
	entry := c.exchangeTransform(r, "allreduce-generic", r.clock, func(idx int) {
		f = record[fold[T, D]](c.rv)
		f.put(c.rv, idx, val, dest, bytes)
	}, nil, true)
	f.run(c, "allreduce-generic", func() { reduce(f.vals, f.dests) })
	c.chargeCollective(r, "allreduce-generic", entry, allReduceCost(c, alg, f.bytes, bytes))
	return f.dests[c.LocalIndex(r)]
}

// fold is one all-reduce generation's record: the contributions and
// the destinations the fold writes, in member order, and the largest
// contribution's size, on which every member is charged (per the
// shared charging-path convention).
//
// The fold runs outside the commit section: the rendezvous only gathers
// the contributions, and the first member to resume folds them while
// the others wait for it. The last arriver yields (see
// exchangeTransform), so folds on different communicators run side by
// side, each on its own worker.
type fold[T, D any] struct {
	vals  []T
	dests []D
	bytes int
	once  sync.Once
	// failed is the diagnostic of a fold that panicked, which every
	// member panics with.
	failed error
}

// put records member idx's contribution, its destination and its size
// in bytes, emptying the record at the generation's first arrival.
// Caller holds rv.mu (at the member's arrival).
func (f *fold[T, D]) put(rv *rendezvous, idx int, val T, dest D, bytes int) {
	if f.vals == nil {
		f.vals, f.dests = make([]T, rv.n), make([]D, rv.n)
	}
	if rv.arrived == 0 {
		f.bytes, f.once, f.failed = 0, sync.Once{}, nil
	}
	f.vals[idx], f.dests[idx] = val, dest
	f.bytes = max(f.bytes, bytes)
}

// run runs body exactly once across the members that call it and
// returns once it has finished.
func (f *fold[T, D]) run(c *Comm, op string, body func()) {
	f.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				f.failed = fmt.Errorf("cluster: %s fold panicked on comm %v (dup %q): %v%s",
					op, c.members, c.key, p, c.diag())
			}
		}()
		body()
	})
	if f.failed != nil {
		panic(f.failed)
	}
}

// sumFold is one sum all-reduce generation's record: the contributions,
// the total every member receives (the sum has no per-member
// destination) and the map the fold reuses.
type sumFold struct {
	fold[[]float64, struct{}]
	total []float64
	// shared maps each contribution's backing array to the number of
	// contributions that share it, then a shared one to its zero test.
	shared map[*float64]int
}

// Zero-test outcomes of a backing array in sumFold.shared.
const (
	sharedZero = -1
	sharedLive = -2
)

// sum folds the contributions into the total and runs apply on it. The
// element range is split into stripes (in parallel when the fold is big
// enough, see dense.Serial), and each stripe adds the contributions in
// member order, so every element is added in the serial loop's order,
// bit for bit. (Where several NaNs meet, IEEE 754 leaves open whose
// payload the result carries; the vector kernels keep the running
// sum's.)
func (f *sumFold) sum(apply func(total []float64)) {
	n := len(f.vals[0])
	for _, v := range f.vals {
		if len(v) != n {
			panic(fmt.Sprintf("cluster: AllReduceSum length mismatch %d vs %d", len(v), n))
		}
	}
	f.total = resize(f.total, n)
	total, adds := f.total, f.addends()
	if dense.Serial(n, int64(len(adds))*int64(n)) {
		addStripe(total, adds, 0, n)
	} else {
		dense.ParallelRows(n, func(lo, hi int) { addStripe(total, adds, lo, hi) })
	}
	if apply != nil {
		apply(total)
	}
}

// addends compacts vals, in place and in member order, to the
// contributions the fold must add: all of them, except that a backing
// array several members contribute (training's shared zero gradient)
// is tested for all-zero once and dropped wherever it appears when it
// is. Dropping is exact: the total starts at +0, and a sum of float64s
// that starts at +0 is never −0 (x + −x is +0 under round-to-nearest),
// so adding ±0 never changes it. A shared non-zero array is kept once
// per member that contributes it.
func (f *sumFold) addends() [][]float64 {
	if len(f.vals[0]) == 0 {
		return nil
	}
	if f.shared == nil {
		f.shared = make(map[*float64]int, len(f.vals))
	}
	clear(f.shared)
	for _, v := range f.vals {
		f.shared[&v[0]]++
	}
	adds := f.vals[:0]
	for _, v := range f.vals {
		k := &v[0]
		switch f.shared[k] {
		case 1, sharedLive:
		case sharedZero:
			continue
		default:
			if allZero(v) {
				f.shared[k] = sharedZero
				continue
			}
			f.shared[k] = sharedLive
		}
		adds = append(adds, v)
	}
	return adds
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// addStripe sets total[lo:hi] to +0 plus every addend's [lo:hi], in
// order, two addends per pass. The scale 1 makes every multiply exact
// and the kernels never fuse the add, so each element takes exactly
// the serial loop's adds.
func addStripe(total []float64, adds [][]float64, lo, hi int) {
	t := total[lo:hi]
	clear(t)
	k := 0
	for ; k+1 < len(adds); k += 2 {
		dense.Axpy2(t, 1, adds[k][lo:hi], 1, adds[k+1][lo:hi])
	}
	if k < len(adds) {
		dense.Axpy(t, 1, adds[k][lo:hi])
	}
}

// hierComms lazily builds (exactly once) the per-node and leader
// sub-communicators of this communicator, or none when it sits on one
// node. All members must share the same instances or their rendezvous
// would never meet.
func (c *Comm) hierComms() (map[int]*Comm, *Comm) {
	c.hierOnce.Do(func() {
		model := c.cl.Model
		nodes := map[int][]int{}
		var nodeOrder []int
		for _, m := range c.members {
			n := model.node(m)
			if _, ok := nodes[n]; !ok {
				nodeOrder = append(nodeOrder, n)
			}
			nodes[n] = append(nodes[n], m)
		}
		if len(nodeOrder) <= 1 {
			return
		}
		intra := map[int]*Comm{}
		var leaderRanks []int
		for _, n := range nodeOrder {
			intra[n] = c.cl.NewComm(nodes[n])
			leaderRanks = append(leaderRanks, nodes[n][0])
		}
		c.hierIntra = intra
		c.hierLeaders = c.cl.NewComm(leaderRanks)
	})
	return c.hierIntra, c.hierLeaders
}
