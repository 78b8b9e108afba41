package prng

import (
	"math"
	"math/rand"
	"testing"
)

// draw runs one op on both generators and returns both results. The ops
// cover every Rand method the fuzzer and injector call, through both of the
// source's entry points (Int63 and Uint64).
func draw(op byte, got, want *rand.Rand) (g, w any) {
	switch op % 6 {
	case 0:
		return got.Uint64(), want.Uint64()
	case 1:
		return got.Int63(), want.Int63()
	case 2:
		return got.Float64(), want.Float64()
	case 3:
		n := 1 + int(op)
		return got.Intn(n), want.Intn(n)
	case 4:
		n := int64(1) << (op % 63)
		return got.Int63n(n), want.Int63n(n)
	default:
		return got.Int31n(1 + int32(op)), want.Int31n(1 + int32(op))
	}
}

// compare draws n mixed values from both generators and fails on the first
// difference.
func compare(t *testing.T, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		op := byte(i*7 + i/5)
		if g, w := draw(op, got, want); g != w {
			t.Fatalf("seed %d: draw %d (op %d) = %v, math/rand gives %v", seed, i, op%6, g, w)
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max,
		math.MinInt64, math.MaxInt64, 89482311,
	}
	r := rand.New(rand.NewSource(20170423))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		// Three passes over the vector: the walk wraps twice, so words are
		// read both freshly seeded and already fed back.
		got, want := New(seed), rand.New(rand.NewSource(seed))
		compare(t, seed, got, want, 3*rngLen)
		// Re-seeding a used source starts the new stream afresh.
		got.Seed(^seed)
		want.Seed(^seed)
		compare(t, ^seed, got, want, rngLen+1)
	}
}

func FuzzStream(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(-1), []byte{255, 128, 7})
	f.Add(int64(math.MinInt64), []byte{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i, op := range ops {
			if op == 0xff {
				// Re-seed mid-stream from the stream itself.
				g, w := got.Int63(), want.Int63()
				if g != w {
					t.Fatalf("op %d: got %d, math/rand gives %d", i, g, w)
				}
				got.Seed(w - int64(i))
				want.Seed(w - int64(i))
				continue
			}
			// Each op draws up to 32 values, so short inputs still walk the
			// vector past its wrap.
			for j := 0; j <= int(op>>3); j++ {
				if g, w := draw(op, got, want); g != w {
					t.Fatalf("op %d (%d), draw %d: got %v, math/rand gives %v", i, op, j, g, w)
				}
			}
		}
	})
}
