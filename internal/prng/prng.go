// Package prng provides a math/rand source that emits exactly the stream of
// rand.NewSource but seeds in constant time.
//
// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word vector. Seeding fills that vector from a multiplicative LCG,
// x[n+1] = 48271·x[n] mod (2³¹−1), at 1,841 serial steps:
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// A fuzz iteration draws a few dozen to a few hundred values, so it paid
// for far more seeding than it used. Because the LCG is multiplicative,
// x[n] = seed·48271ⁿ mod (2³¹−1) and every word can be computed on its
// own from a power table. Seed therefore only stores the reduced seed and
// clears a bitmap; a word is computed on its first read.
//
// The stream is fixed by the Go 1 compatibility promise for math/rand, and
// the package's equivalence test and FuzzStream compare it draw for draw.
package prng

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lcgMul   = 48271
	// lcgSteps is the number of LCG steps math/rand's Seed takes: 20
	// warm-up steps, then three per vector word.
	lcgSteps = 20 + 3*rngLen
)

var (
	// pow[n] is 48271ⁿ mod (2³¹−1).
	pow [lcgSteps + 1]uint64
	// cooked is math/rand's rngCooked table, recovered by init.
	cooked [rngLen]uint64
)

// init recovers rngCooked from the first 607 draws of rand.NewSource(1)
// rather than carrying a copy of the table. Draw k (1-based) adds the tap
// word at index 607−k into the feed word at index (334−k) mod 607, and each
// index is written exactly once as a feed within those draws. So:
//
//   - for k > 273 the tap word is the one draw k−273 wrote, which makes the
//     feed word d[k] − d[k−273] (vec[0..60] and vec[334..606]);
//   - for k ≤ 273 both words are untouched, and the tap word is now known
//     (vec[61..333]).
//
// XOR with seed 1's LCG terms then yields the table.
func init() {
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * lcgMul % int32max
	}
	src := rand.NewSource(1).(rand.Source64)
	var d [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		d[k] = src.Uint64()
	}
	var v [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(rngLen+rngLen-rngTap-k)%rngLen] = d[k] - d[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = d[k] - v[rngLen-k]
	}
	for i := range cooked {
		cooked[i] = v[i] ^ lcgWord(1, i)
	}
}

// lcgWord is the LCG part of vector word i for reduced seed x0.
func lcgWord(x0 uint64, i int) uint64 {
	n := 21 + 3*i
	return x0*pow[n]%int32max<<40 ^ x0*pow[n+1]%int32max<<20 ^ x0*pow[n+2]%int32max
}

// source is a rand.Source64 whose stream equals rand.NewSource's for the
// same seed. It is not safe for concurrent use.
type source struct {
	tap, feed int
	x0        uint64                     // the seed, reduced as math/rand reduces it
	have      [(rngLen + 63) / 64]uint64 // bit i: vec[i] is computed
	vec       [rngLen]uint64
}

// New returns a *rand.Rand over a source seeded with seed: the same values,
// method for method, as rand.New(rand.NewSource(seed)), re-seeding
// included.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed resets the source to seed's stream in constant time.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.have = [len(s.have)]uint64{}
}

// get returns vector word i, computing its seeded value on first read.
func (s *source) get(i int) uint64 {
	if s.have[i>>6]&(1<<(i&63)) == 0 {
		s.vec[i] = lcgWord(s.x0, i) ^ cooked[i]
		s.have[i>>6] |= 1 << (i & 63)
	}
	return s.vec[i]
}

// Uint64 returns the next value of the stream: math/rand's tap/feed walk.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.get(s.feed) + s.get(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
