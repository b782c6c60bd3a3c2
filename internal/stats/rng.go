package stats

import "math/rand"

// NewRand returns a deterministic pseudo-random source for the given seed.
// Every stochastic component in the reproduction (stream generators, chain
// samples, propagation coin flips) draws from an explicitly seeded source so
// that experiments are reproducible run-to-run, and so that the 12-run
// averages the paper reports can be regenerated exactly.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitRand derives a child source from a parent, consuming one value from
// the parent. Use it to hand independent streams to concurrent components
// without sharing (and locking) a single source.
func SplitRand(parent *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(parent.Int63()))
}

// Child derives the i-th child source of a base seed with SplitMix64
// mixing. Unlike SplitRand, which consumes parent state sequentially and
// therefore depends on the order of derivations, Child(seed, i) is a pure
// function of (seed, i): parallel workers can derive their sources in any
// order — or concurrently — and a fixed seed still reproduces the same
// per-index streams. The parallel evaluation harness keys every
// independent unit of work (a sweep run, a sensor) this way.
func Child(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(ChildSeed(seed, i)))
}

// ChildSeed returns the seed Child(seed, i) sources its stream from.
// Components that need to own the raw source — the serving shards wrap it
// in a draw-counting adapter so snapshots can record the rng position —
// derive their per-index seeds here and stay stream-identical to Child.
func ChildSeed(seed int64, i int) int64 {
	x := uint64(seed) + (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Clamp limits x to the interval [lo, hi]. Stream generators use it to keep
// normalized readings inside the unit domain the estimators require.
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
