package core

import (
	"math"
	"math/rand"
	"sort"
)

// ITS implements inverse transform sampling of s distinct entries per
// probability row (Section 2.3 and 4.1.2 of the paper): run a prefix
// sum over the row's weights, draw uniform variates, and binary-search
// each draw into the prefix sum; repeat until s distinct columns are
// selected.
//
// A bounded number of redraws guards against pathological rows (a few
// entries holding nearly all mass); past the bound, sampling falls
// back to exponential-key weighted reservoir selection (Efraimidis &
// Sanders-style), which is draw-exact without replacement.

// FloatRNG is the uniform-variate source the samplers draw from:
// *rand.Rand and *RowRNG (the allocation-free exact replica of
// math/rand's stream) both satisfy it.
type FloatRNG interface {
	Float64() float64
}

// SampleRowITS selects min(s, len(cols)) distinct indices into cols
// with probability proportional to weights, without replacement.
// It returns the selected positions (sorted) and the number of
// elementary operations performed (for cost accounting).
func SampleRowITS(weights []float64, s int, rng FloatRNG) (picks []int, ops int64) {
	var sc itsScratch
	return sampleRowITS(weights, s, rng, &sc)
}

// itsScratch holds the per-row working storage SampleRowITS needs, so
// a driver sampling many rows (RowSampler) reuses it instead of
// reallocating the prefix-sum and selection buffers per row.
type itsScratch struct {
	prefix []float64
	chosen []int // selected indices, kept sorted
	keyed  []itsKeyed
}

type itsKeyed struct {
	key float64
	idx int
}

// prefixBuf returns the prefix-sum scratch resized to n entries.
func (sc *itsScratch) prefixBuf(n int) []float64 {
	if cap(sc.prefix) < n {
		sc.prefix = make([]float64, n)
	}
	return sc.prefix[:n]
}

// insertChosen adds idx to the sorted selection if absent.
func (sc *itsScratch) insertChosen(idx int) {
	at := sort.SearchInts(sc.chosen, idx)
	if at < len(sc.chosen) && sc.chosen[at] == idx {
		return
	}
	sc.chosen = append(sc.chosen, 0)
	copy(sc.chosen[at+1:], sc.chosen[at:])
	sc.chosen[at] = idx
}

// sampleRowITS is SampleRowITS over caller-owned scratch. The drawn
// variate sequence, the op accounting and the returned picks are
// identical to the historical map-based implementation (the selection
// set is sorted on return either way).
func sampleRowITS(weights []float64, s int, rng FloatRNG, sc *itsScratch) (picks []int, ops int64) {
	nnz := len(weights)
	if nnz == 0 || s <= 0 {
		return nil, 0
	}
	if nnz <= s {
		picks = make([]int, nnz)
		for i := range picks {
			picks[i] = i
		}
		return picks, int64(nnz)
	}

	// Prefix sum.
	prefix := sc.prefixBuf(nnz + 1)
	prefix[0] = 0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("core: negative or NaN sampling weight")
		}
		prefix[i+1] = prefix[i] + w
	}
	ops += int64(nnz)
	total := prefix[nnz]
	if total == 0 {
		return nil, ops
	}

	ops += sc.draw(prefix[1:], weights, 1, s, rng)
	picks = make([]int, len(sc.chosen))
	copy(picks, sc.chosen)
	return picks, ops
}

// draw is ITS over a supplied prefix sum: it selects s distinct
// positions of a row with more than s entries into sc.chosen (sorted)
// and returns the operations spent. cum[k] is the inclusive running sum
// of the row's weights, cum[len-1] > 0 their total, and entry k's
// weight is w[k]·scale — the matrix path passes normalized weights and
// scale 1, SAGE.Step passes A's row and the scale NormPrefix returned.
func (sc *itsScratch) draw(cum, w []float64, scale float64, s int, rng FloatRNG) (ops int64) {
	nnz := len(cum)
	total := cum[nnz-1]
	sc.chosen = sc.chosen[:0]
	maxTries := 8*s + 32
	tries := 0
	for len(sc.chosen) < s && tries < maxTries {
		tries++
		u := rng.Float64() * total
		// Find the first prefix boundary exceeding u.
		idx := sort.SearchFloat64s(cum, u)
		if idx >= nnz {
			idx = nnz - 1
		}
		// Skip zero-weight entries that a boundary draw can land on.
		if w[idx]*scale == 0 {
			continue
		}
		ops += int64(math.Ilogb(float64(nnz))) + 1
		sc.insertChosen(idx)
	}

	if len(sc.chosen) < s {
		// Fallback: exponential-key weighted order statistics. Exact
		// without-replacement semantics at O(nnz log nnz).
		ks := sc.keyed[:0]
		for i := range w {
			wi := w[i] * scale
			if wi <= 0 {
				continue
			}
			ks = append(ks, itsKeyed{key: -math.Log(rng.Float64()) / wi, idx: i})
		}
		sort.Slice(ks, func(a, b int) bool { return ks[a].key < ks[b].key })
		ops += int64(len(ks)) * 2
		for _, kv := range ks {
			if len(sc.chosen) == s {
				break
			}
			sc.insertChosen(kv.idx)
		}
		sc.keyed = ks[:0]
	}
	return ops
}

// RowSampler batches per-row ITS sampling over one reused RNG and
// scratch set: Sample(weights, s, seed, row) is exactly
// SampleRowITS(weights, s, NewRowRNG(seed, row)) — same draws, same
// ops, same picks — without the per-row source seeding and buffer
// allocations that dominated bulk-sampling CPU time.
type RowSampler struct {
	rng RowRNG
	sc  itsScratch
}

// Sample draws min(s, nnz) distinct indices for one row. See
// SampleRowITS for semantics.
func (rs *RowSampler) Sample(weights []float64, s int, seed int64, row int) (picks []int, ops int64) {
	rs.rng.Reseed(rowSeed(seed, row))
	return sampleRowITS(weights, s, &rs.rng, &rs.sc)
}

// rowSeed derives a per-row RNG seed so sampling is deterministic
// regardless of the order or parallelism in which rows are processed.
func rowSeed(seed int64, row int) int64 {
	z := uint64(seed) + uint64(row)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// NewRowRNG returns the deterministic RNG for the given (seed, row).
func NewRowRNG(seed int64, row int) *rand.Rand {
	return rand.New(rand.NewSource(rowSeed(seed, row)))
}
