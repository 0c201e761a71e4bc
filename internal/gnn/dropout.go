package gnn

import (
	"repro/internal/dense"
)

// fillDropoutMask overwrites m with an inverted-dropout mask (entries
// are 0 with probability rate, else 1/(1-rate)) drawn deterministically
// from a seed and layer index, so repeated forwards in numerical
// gradient checks see identical masks.
func fillDropoutMask(m *dense.Matrix, rate float64, seed int64, layer int) {
	keep := 1 - rate
	inv := 1 / keep
	// splitmix64 stream per (seed, layer).
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(layer+1)*0xBF58476D1CE4E5B9
	for i := range m.Data {
		z += 0x9E3779B97F4A7C15
		x := z
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
		if u := float64(x>>11) / float64(1<<53); u < keep {
			m.Data[i] = inv
		} else {
			m.Data[i] = 0
		}
	}
}

// SetDropout enables inverted dropout on hidden activations at the
// given rate; seed fixes the mask stream (advance it per training step
// with NextDropoutSeed). A rate of 0 disables dropout (evaluation
// mode).
func (m *Model) SetDropout(rate float64, seed int64) {
	if rate < 0 || rate >= 1 {
		panic("gnn: dropout rate must be in [0, 1)")
	}
	m.dropRate = rate
	m.dropSeed = seed
}

// NextDropoutSeed advances the mask stream — call once per training
// step so successive minibatches see fresh masks.
func (m *Model) NextDropoutSeed() { m.dropSeed++ }

// DropoutSeed returns the current mask-stream position. Together with
// SetDropoutSeed it lets a checkpoint capture and restore the RNG
// stream state, so a restored run draws exactly the masks an
// uninterrupted run would have drawn.
func (m *Model) DropoutSeed() int64 { return m.dropSeed }

// SetDropoutSeed rewinds or fast-forwards the mask stream to an
// absolute position (a value previously read via DropoutSeed).
func (m *Model) SetDropoutSeed(seed int64) { m.dropSeed = seed }
