package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync"
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

	// drivers records, per member rank, the stream that drives this
	// communicator (first use wins); a second stream of the same rank
	// is a programming error that would interleave the rendezvous.
	driverMu sync.Mutex
	drivers  map[int]string

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
	comm := &Comm{
		cl:      c,
		members: sorted,
		index:   idx,
		rv:      newRendezvous(len(sorted)),
		link:    c.Model.worstLink(sorted),
	}
	c.register(comm)
	return comm
}

// register records a new communicator (or clone) on the cluster and on
// each member rank, so a finishing rank sweeps only its own
// communicators.
func (c *Cluster) register(comm *Comm) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.comms = append(c.comms, comm)
	for _, m := range comm.members {
		c.rankComms[m] = append(c.rankComms[m], comm)
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
	base.cl.register(d)
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
// binds it to that rank's stream for the cluster's lifetime.
func (c *Comm) checkDriver(r *Rank) {
	c.driverMu.Lock()
	defer c.driverMu.Unlock()
	if c.drivers == nil {
		c.drivers = map[int]string{}
	}
	prev, ok := c.drivers[r.ID]
	if !ok {
		c.drivers[r.ID] = r.stream
		return
	}
	if prev != r.stream {
		panic(fmt.Sprintf("cluster: comm %v (dup %q) driven by two streams of rank %d (%q then %q); duplicate it per stream with ForStream/Dup",
			c.members, c.key, r.ID, prev, r.stream))
	}
}

// resetDrivers clears the stream bindings; Cluster.Run calls it so a
// later run may drive this communicator from a differently-named
// stream than the last.
func (c *Comm) resetDrivers() {
	c.driverMu.Lock()
	c.drivers = nil
	c.driverMu.Unlock()
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

// slot is the per-member contribution to a collective exchange.
type slot struct {
	clock float64
	val   any
	bytes int
}

// rendezvous synchronizes one collective call across n participants
// with a generation counter so back-to-back collectives don't race.
// It detects two classes of would-be deadlocks and poisons itself so
// every participant panics with a diagnostic instead of hanging:
// mismatched collective sequences (members calling different
// collectives on the same communicator) and abandoned collectives (a
// member's rank body returned while peers wait for it).
type rendezvous struct {
	mu      sync.Mutex
	n       int
	arrived int
	gen     uint64
	op      string // collective name of the in-flight generation
	waiting []bool // member indices arrived in the current generation
	slots   []slot
	out     []slot
	// bufs is a three-generation ring reusing the slot storage instead
	// of allocating n slots per collective. Three is the safe depth: a
	// participant consumes generation g's slots before it arrives at
	// generation g+2 (collectives finish reading before returning, and
	// the contention charging path interposes at most one nested
	// generation), and generation g+3's first arrival — the earliest
	// reuse — requires g+2 to have completed, i.e. every participant
	// to have arrived at g+2.
	bufs [3][]slot
	// sparse holds the all-to-allv bucket buffers on the same ring, one
	// per payload type the communicator has carried. Members read a
	// generation's buckets until their next collective on the
	// communicator returns. Generation g's are rewritten no sooner than
	// by g+3's transform, which needs every member to have arrived
	// there, and a member's next collective ends at g+2 — or at g+3
	// under contention, whose extra rounds never touch this ring.
	sparse [3][]any
	failed error // poisoned: every current and future participant panics
	// parked are the members waiting on the in-flight generation; the
	// last arriver — or the poison path — readies them and clears the
	// list.
	parked []parkedMember
}

// parkedMember is one parked member plus the simulated time to ready it
// at (its entry clock; collectives complete at max entry + cost, so
// the wake time only orders events, never changes results).
type parkedMember struct {
	w     waiter
	clock float64
}

func newRendezvous(n int) *rendezvous {
	return &rendezvous{n: n, waiting: make([]bool, n)}
}

// genBuf returns the reusable slot buffer for the current generation.
// Caller holds rv.mu (first arrival of the generation).
func (rv *rendezvous) genBuf() []slot {
	i := rv.gen % 3
	if rv.bufs[i] == nil {
		rv.bufs[i] = make([]slot, rv.n)
	}
	return rv.bufs[i]
}

// release readies every parked member at its entry clock, in arrival
// order. Caller holds rv.mu.
func (rv *rendezvous) release() {
	for _, p := range rv.parked {
		p.w.ready(p.clock)
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

// diag appends execution-backend context to a deadlock diagnostic.
func (c *Comm) diag() string { return c.cl.sched.diag() }

// exchange contributes one slot under the named collective and returns
// all n slots once every participant has arrived. The returned slice
// is shared and must be treated as read-only. Deadlock detection: a
// participant whose collective name disagrees with the in-flight one,
// or whose peers can never arrive because their rank bodies already
// returned, poisons the rendezvous and panics all participants.
func (c *Comm) exchange(r *Rank, op string, s slot) []slot {
	return c.exchangeTransform(r, op, s, nil)
}

// exchangeTransform is exchange with a completion hook: the last
// arriver applies transform to the full slot set (under the rendezvous
// lock, so the call is atomic with respect to this communicator) and
// every participant receives the transformed slots. The contention
// charging path uses it to solve one collective's member flows in a
// single ledger transaction. A nil transform returns the slots as-is.
func (c *Comm) exchangeTransform(r *Rank, op string, s slot, transform func([]slot) []slot) []slot {
	c.checkDriver(r)
	out, gen := c.arrive(r, op, s, transform)
	if out != nil {
		return out
	}
	// One wake suffices — only generation completion or poison readies
	// a parked member, and the next generation cannot finish (it needs
	// this very rank) before it resumes, so rv.out is still ours then.
	r.w.park()
	rv := c.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.failed != nil {
		panic(rv.failed)
	}
	if rv.gen == gen {
		panic(fmt.Sprintf("cluster: spurious wake on comm %v (dup %q) during %s", c.members, c.key, op))
	}
	return rv.out
}

// arrive is exchangeTransform's locked half. The last arriver completes
// the generation, readies the parked members and gets the output slots;
// an earlier one is recorded as parked and gets nil plus the generation
// it must park for. The unlock is deferred so every diagnostic panic
// below releases the rendezvous.
func (c *Comm) arrive(r *Rank, op string, s slot, transform func([]slot) []slot) ([]slot, uint64) {
	idx := c.LocalIndex(r)
	rv := c.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.failed != nil {
		panic(rv.failed)
	}
	if rv.arrived == 0 {
		rv.op = op
		rv.slots = rv.genBuf()
	} else if rv.op != op {
		err := fmt.Errorf("cluster: mismatched collectives on comm %v (dup %q): rank %d called %s while %s is in flight%s",
			c.members, c.key, r.ID, op, rv.op, c.diag())
		c.poison(err)
		panic(err)
	}
	rv.slots[idx] = s
	rv.waiting[idx] = true
	rv.arrived++
	if rv.arrived == rv.n {
		if transform != nil {
			// A transform panic fires with the generation complete, which
			// disables both of the deadlock detector's poison paths (the
			// entry scan and checkAbandoned bail when arrived == n), so
			// poison the rendezvous here before propagating: the n-1
			// parked members panic with the diagnostic instead of waiting
			// forever.
			func() {
				defer func() {
					if p := recover(); p != nil {
						err := fmt.Errorf("cluster: %s transform panicked on comm %v (dup %q): %v%s",
							op, c.members, c.key, p, c.diag())
						c.poison(err)
						panic(err)
					}
				}()
				rv.out = transform(rv.slots)
			}()
		} else {
			rv.out = rv.slots
		}
		rv.slots = nil
		rv.arrived = 0
		rv.op = ""
		for i := range rv.waiting {
			rv.waiting[i] = false
		}
		rv.gen++
		// Completion time is charged by each member itself, so the wake
		// time only orders events.
		rv.release()
		return rv.out, rv.gen
	}
	// A peer that already finished its rank body can never arrive. The
	// scan is gated on the lock-free anyDone flag, so the common case
	// (all bodies still running) pays nothing here.
	if c.cl.anyDone.Load() {
		if m := c.abandonedLocked(); m >= 0 {
			err := c.abandonErr(m, op)
			c.poison(err)
			panic(err)
		}
	}
	rv.parked = append(rv.parked, parkedMember{w: r.w, clock: s.clock})
	return nil, rv.gen
}

// abandonedLocked returns a member rank that can never join the
// in-flight collective because its body already returned, or -1.
// Caller holds rv.mu.
func (c *Comm) abandonedLocked() int {
	rv := c.rv
	if rv.failed != nil || rv.arrived == 0 || rv.arrived == rv.n {
		return -1
	}
	c.cl.mu.Lock()
	defer c.cl.mu.Unlock()
	if c.cl.done == nil {
		return -1
	}
	for i, m := range c.members {
		if !rv.waiting[i] && c.cl.done[m] {
			return m
		}
	}
	return -1
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

// checkAbandoned poisons the rendezvous if members are waiting for a
// peer whose rank body has already returned. Called by the cluster
// each time a rank body finishes.
func (c *Comm) checkAbandoned() {
	rv := c.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if m := c.abandonedLocked(); m >= 0 {
		c.poison(c.abandonErr(m, rv.op))
	}
}

// maxClock returns the maximum entry clock across slots: collectives
// are bulk synchronous, so everyone leaves no earlier than the slowest
// arriver plus the modeled cost.
func maxClock(slots []slot) float64 {
	m := 0.0
	for _, s := range slots {
		if s.clock > m {
			m = s.clock
		}
	}
	return m
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

// Barrier synchronizes all members; cost α·⌈log2 n⌉ at the worst tier.
func Barrier(c *Comm, r *Rank) {
	slots := c.exchange(r, "barrier", slot{clock: r.clock})
	c.chargeCollective(r, "barrier", maxClock(slots), barrierCost(c))
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
	me := c.LocalIndex(r)
	s := slot{clock: r.clock}
	if me == root {
		s.val = val
		s.bytes = bytes
	}
	slots := c.exchange(r, "broadcast", s)
	rs := slots[root]
	c.chargeCollective(r, "broadcast", maxClock(slots), broadcastCost(c, alg, rs.bytes, me == root))
	return rs.val.(T)
}

// AllGather collects every member's value; the result is indexed by
// local member index. FlatTree charges recursive doubling
// α·⌈log2 n⌉ + β·(total bytes); Ring charges (n−1)·α with the same β
// term.
func AllGather[T any](c *Comm, r *Rank, val T, bytes int) []T {
	slots := c.exchange(r, "allgather", slot{clock: r.clock, val: val, bytes: bytes})
	total := 0
	for _, s := range slots {
		total += s.bytes
	}
	c.chargeCollective(r, "allgather", maxClock(slots), allGatherCost(c, c.allReduceAlg(), total, bytes))
	out := make([]T, len(slots))
	for i, s := range slots {
		out[i] = s.val.(T)
	}
	return out
}

// Gather collects every member's value at root; non-root members
// receive nil. Cost at root α·⌈log2 n⌉ + β·(received bytes); leaves pay
// α + β·(own bytes).
func Gather[T any](c *Comm, r *Rank, root int, val T, bytes int) []T {
	me := c.LocalIndex(r)
	slots := c.exchange(r, "gather", slot{clock: r.clock, val: val, bytes: bytes})
	entry := maxClock(slots)
	if me == root {
		total := 0
		for i, s := range slots {
			if i != root {
				total += s.bytes
			}
		}
		c.chargeCollective(r, "gather", entry, gatherCost(c, total, bytes, true))
		out := make([]T, len(slots))
		for i, s := range slots {
			out[i] = s.val.(T)
		}
		return out
	}
	c.chargeCollective(r, "gather", entry, gatherCost(c, 0, bytes, false))
	return nil
}

// Scatter distributes parts[i] from root to member i. Root must pass a
// slice with one entry per member; others pass nil. bytes sizes each
// part for cost accounting. Root's completion charges the total volume
// sent (a sequential ISend loop as in Algorithm 2); each receiver
// charges α + β·(its part).
func Scatter[T any](c *Comm, r *Rank, root int, parts []T, bytes func(T) int) T {
	me := c.LocalIndex(r)
	s := slot{clock: r.clock}
	if me == root {
		if len(parts) != c.Size() {
			panic(fmt.Sprintf("cluster: Scatter root passed %d parts for %d members", len(parts), c.Size()))
		}
		s.val = parts
	}
	slots := c.exchange(r, "scatter", s)
	entry := maxClock(slots)
	rootParts := slots[root].val.([]T)
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
// buckets every message by destination once, inside the rendezvous, and
// takes the entry clock once. FlatTree charges the linear exchange
// (n−1)·α + β·max(bytes sent, bytes received); Pairwise charges the
// Bruck log-round schedule. Both exclude the self part. This is the
// feature-fetching primitive of Section 6.2.
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
	slots := c.exchangeTransform(r, "alltoallv", slot{clock: r.clock, val: sparseMsg[T]{dst, parts}},
		func(slots []slot) []slot {
			ringBuckets[T](c.rv).fill(slots)
			return slots
		})
	b := slots[me].val.(*buckets[T])
	lo, hi := b.off[me], b.off[me+1]
	src, got = b.src[lo:hi], b.parts[lo:hi]
	recvd := 0
	for k, s := range src {
		if s != me {
			recvd += bytes(got[k])
		}
	}
	c.chargeCollective(r, "alltoallv", b.entry, allToAllvCost(c, c.allToAllAlg(), sent, recvd))
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
	entry float64 // latest entry clock across members
}

// ringBuckets returns the generation's reusable bucket buffers for
// payload type T. Caller holds rv.mu (inside the transform).
func ringBuckets[T any](rv *rendezvous) *buckets[T] {
	ring := &rv.sparse[rv.gen%3]
	for _, x := range *ring {
		if b, ok := x.(*buckets[T]); ok {
			return b
		}
	}
	b := &buckets[T]{}
	*ring = append(*ring, b)
	return b
}

// fill buckets every member's messages by destination with a counting
// sort, senders in ascending order, and hands every member the table.
func (b *buckets[T]) fill(slots []slot) {
	n := len(slots)
	b.off = resize(b.off, n+2)
	clear(b.off)
	total := 0
	for _, s := range slots {
		m := s.val.(sparseMsg[T])
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
	for i, s := range slots {
		m := s.val.(sparseMsg[T])
		for k, d := range m.dst {
			j := b.off[d+1]
			b.off[d+1]++
			b.src[j], b.parts[j] = i, m.parts[k]
		}
	}
	b.entry = maxClock(slots)
	for i := range slots {
		slots[i].val = b
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
// identical on every member (zeros, then += each slot in member order),
// so the last arriver computes it once inside the rendezvous transform
// — O(n·len) total instead of the O(n²·len) of every member re-folding
// all n slots, the dominant simulator cost at large p — and every
// member receives the one shared total, which must be treated as
// read-only. A non-nil apply runs on the shared total inside the
// transform: exactly once per collective, while every other member is
// blocked in the rendezvous, which is what makes the shared-model
// optimizer step of AllReduceSumApply race-free on both backends.
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
	slots := c.exchangeTransform(r, "allreduce", slot{clock: r.clock, val: x, bytes: 8 * len(x)},
		func(slots []slot) []slot {
			sum := make([]float64, len(slots[0].val.([]float64)))
			maxBytes := 0
			for _, s := range slots {
				v := s.val.([]float64)
				if len(v) != len(sum) {
					panic(fmt.Sprintf("cluster: AllReduceSum length mismatch %d vs %d", len(v), len(sum)))
				}
				for i, f := range v {
					sum[i] += f
				}
				if s.bytes > maxBytes {
					maxBytes = s.bytes
				}
			}
			if apply != nil {
				apply(sum)
			}
			for i := range slots {
				slots[i].val = sum
				slots[i].bytes = maxBytes
			}
			return slots
		})
	entry := maxClock(slots)
	me := c.LocalIndex(r)
	out := slots[me].val.([]float64)
	c.chargeCollective(r, "allreduce", entry, allReduceCost(c, alg, slots[me].bytes, 8*len(x)))
	return out
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
// what the replicated-state dedup removes at large p. apply runs while
// every member is synchronized inside the rendezvous (for the
// hierarchical schedule: inside the node-leader stage, before any
// member leaves the broadcast), so mutations of shared training state
// are race-free under both backends.
func AllReduceSumApply(c *Comm, r *Rank, x []float64, apply func(total []float64)) {
	allReduceSum(c, r, x, c.allReduceAlg(), apply)
}

// AllReduceGenericInto folds arbitrary values: the fold runs once,
// inside the rendezvous, by a caller-supplied reducer that writes each
// member's private result into that member's destination (the same
// move allReduceSum made for the elementwise sum — O(n)
// combines total instead of every member redoing all n). reduce
// receives the contributions and the destinations in member order (the
// fold need not be commutative) and must leave every destination
// holding the full fold; each member returns its own destination, free
// to mutate. Because the fold completes before any member leaves the
// collective — while every member is parked, its buffers quiescent — a
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
	type contrib struct {
		val  T
		dest D
	}
	slots := c.exchangeTransform(r, "allreduce-generic", slot{clock: r.clock, val: contrib{val, dest}, bytes: bytes},
		func(slots []slot) []slot {
			vals := make([]T, len(slots))
			dests := make([]D, len(slots))
			for i, s := range slots {
				cb := s.val.(contrib)
				vals[i], dests[i] = cb.val, cb.dest
			}
			reduce(vals, dests)
			maxBytes := 0
			for _, s := range slots {
				if s.bytes > maxBytes {
					maxBytes = s.bytes
				}
			}
			for i := range slots {
				slots[i].val = dests[i]
				slots[i].bytes = maxBytes
			}
			return slots
		})
	entry := maxClock(slots)
	me := c.LocalIndex(r)
	c.chargeCollective(r, "allreduce-generic", entry, allReduceCost(c, alg, slots[me].bytes, bytes))
	return slots[me].val.(D)
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
