package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based tests for the progressive-filling (max-min fair)
// contention solver. Each property is checked over randomized flow
// sets: randomized starts, byte demands and link assignments over a
// multi-node oversubscribed topology (NICs shared 2:1, a 4x
// oversubscribed fabric trunk — the topology with the most link
// sharing, so the properties exercise real contention, not solo fast
// paths).

// propTopology builds the shared-link topology the properties run on.
func propTopology(t *testing.T, n int) *contention {
	t.Helper()
	topo := OversubscribedTopology(4)
	topo.NICsPerNode = 2
	return testContention(t, topo, n)
}

// randomFlows draws a batch of flows for rank count n: clustered
// starts (so flows genuinely overlap), byte demands across four orders
// of magnitude, and a random interconnect tier per flow.
func randomFlows(rng *rand.Rand, ct *contention, n int) []flowReq {
	count := 1 + rng.Intn(8)
	flows := make([]flowReq, count)
	tiers := []Link{IntraNode, HostLink, InterNode}
	for i := range flows {
		flows[i] = flowReq{
			start: float64(rng.Intn(3)) * 1e-5 * rng.Float64(),
			bytes: math.Pow(10, 3+rng.Float64()*4),
			links: ct.linksFor(rng.Intn(n), tiers[rng.Intn(len(tiers))]),
		}
	}
	return flows
}

// Work conservation: flows sharing one link with equal start times
// drain it at exactly capacity — the last completion is total bytes
// over capacity, no idle gaps and no overdraw.
func TestContentionPropertyWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ct := propTopology(t, 8)
		link := ct.linksFor(rng.Intn(8), InterNode) // NIC (+ trunk)
		count := 1 + rng.Intn(6)
		flows := make([]flowReq, count)
		total := 0.0
		for i := range flows {
			flows[i] = flowReq{start: 0, bytes: math.Pow(10, 3+rng.Float64()*4), links: link}
			total += flows[i].bytes
		}
		fin := finishes(ct, flows)
		last := 0.0
		for _, f := range fin {
			if f > last {
				last = f
			}
		}
		// The shared bottleneck is the slowest of the flow's links.
		capacity := math.Inf(1)
		for _, l := range link {
			if ct.caps[l] < capacity {
				capacity = ct.caps[l]
			}
		}
		want := total / capacity
		if math.Abs(last-want) > 1e-9*want {
			t.Fatalf("trial %d: %d equal-start flows on one link drained in %.17g, want %.17g",
				trial, count, last, want)
		}
	}
}

// Monotonicity: committing an extra flow first can only delay (never
// speed up) the flows that arrive after it; and within one batch,
// adding a member never lets an existing member finish earlier than it
// would have in the smaller batch.
func TestContentionPropertyAddingFlowNeverSpeedsUp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		ctA := propTopology(t, 8)
		ctB := propTopology(t, 8)
		flows := randomFlows(rng, ctA, 8)
		extra := randomFlows(rng, ctA, 8)[:1]
		finA := finishes(ctA, flows)
		finB := finishes(ctB, append(append([]flowReq(nil), flows...), extra...))
		for i := range flows {
			if finB[i] < finA[i]-1e-9*math.Max(1e-12, finA[i]) {
				t.Fatalf("trial %d: flow %d finished at %.17g with an extra flow vs %.17g without",
					trial, i, finB[i], finA[i])
			}
		}
	}
}

// Capacity-scaling invariance: multiplying every link capacity by k
// divides every flow's transfer duration by k (starts held fixed at
// zero so durations are directly comparable).
func TestContentionPropertyCapacityScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const k = 4.0
	for trial := 0; trial < 200; trial++ {
		ctA := propTopology(t, 8)
		ctB := propTopology(t, 8)
		for l := range ctB.caps {
			ctB.caps[l] *= k
		}
		flows := randomFlows(rng, ctA, 8)
		for i := range flows {
			flows[i].start = 0
		}
		finA := finishes(ctA, flows)
		finB := finishes(ctB, append([]flowReq(nil), flows...))
		for i := range flows {
			if finA[i] == 0 && finB[i] == 0 {
				continue // zero-byte or free transfer
			}
			if math.Abs(finA[i]-k*finB[i]) > 1e-9*math.Max(1e-12, finA[i]) {
				t.Fatalf("trial %d: flow %d duration %.17g at 1x vs %.17g at %gx capacity",
					trial, i, finA[i], finB[i], k)
			}
		}
	}
}

// Determinism: one collective's member flows are solved in a single
// ledger transaction, so the same flow set on a fresh ledger must
// yield bit-identical finish times — across 1000 randomized flow sets.
func TestContentionPropertyDeterministicShares(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 1000; trial++ {
		ctA := propTopology(t, 16)
		ctB := propTopology(t, 16)
		flows := randomFlows(rng, ctA, 16)
		finA := finishes(ctA, append([]flowReq(nil), flows...))
		finB := finishes(ctB, append([]flowReq(nil), flows...))
		for i := range finA {
			if finA[i] != finB[i] {
				t.Fatalf("trial %d: flow %d finish not deterministic: %.17g vs %.17g",
					trial, i, finA[i], finB[i])
			}
		}
		// A second identical transaction against the now-occupied ledger
		// must also be deterministic given the same committed state.
		finA2 := finishes(ctA, append([]flowReq(nil), flows...))
		finB2 := finishes(ctB, append([]flowReq(nil), flows...))
		for i := range finA2 {
			if finA2[i] != finB2[i] {
				t.Fatalf("trial %d: second-round finish not deterministic: %.17g vs %.17g",
					trial, finA2[i], finB2[i])
			}
		}
	}
}

// The solo fast path (a single flow on an empty ledger skips the
// sweep) must equal the sweep's closed form on the same input:
// start + bytes/min(cap), bit for bit.
func TestContentionSoloFastPathMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		ct := propTopology(t, 8)
		f := randomFlows(rng, ct, 8)[:1]
		capacity := math.Inf(1)
		for _, l := range f[0].links {
			if ct.caps[l] < capacity {
				capacity = ct.caps[l]
			}
		}
		want := f[0].start + f[0].bytes/capacity
		fin := finishes(ct, f)
		if fin[0] != want {
			t.Fatalf("trial %d: solo fast path %.17g != analytic %.17g", trial, fin[0], want)
		}
	}
}
