package llm

import (
	"math"
	"math/rand"
	"testing"
)

// TestDifferentialLazyRand is the differential for NewRand: against
// rand.New(rand.NewSource(seed)), over edge seeds (0, negative, at and past
// the LCG modulus, the extremes) and a few hundred arbitrary ones, 700 draws
// each — past the 273-draw hand-over — mixing the methods callers use.
func TestDifferentialLazyRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 89482311, lcgMod - 1, lcgMod, lcgMod + 1, -lcgMod, 2 * lcgMod,
		-2*lcgMod - 1, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	pick := rand.New(rand.NewSource(99))
	for len(seeds) < 320 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := NewRand(seed)
		for i := 0; i < 700; i++ {
			var w, g interface{}
			switch (i + int(seed&3)) % 5 {
			case 0:
				w, g = want.Float64(), got.Float64()
			case 1:
				n := 2 + i%9
				w, g = want.Intn(n), got.Intn(n)
			case 2:
				w, g = want.Uint64(), got.Uint64()
			case 3:
				w, g = want.Int63(), got.Int63()
			default:
				w, g = want.Intn(1<<31+i), got.Intn(1<<31+i) // the Int63n path
			}
			if w != g {
				t.Fatalf("seed %d draw %d: got %v, want %v", seed, i, g, w)
			}
		}
	}
}

// TestLazyRandReseed checks Seed restarts the stream, before and after
// the hand-over to a full source.
func TestLazyRandReseed(t *testing.T) {
	got := NewRand(5)
	for _, drawn := range []int{3, 400} {
		for i := 0; i < drawn; i++ {
			got.Uint64()
		}
		got.Seed(-77)
		want := rand.New(rand.NewSource(-77))
		for i := 0; i < 10; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("after %d draws and Seed, draw %d: got %d, want %d", drawn, i, g, w)
			}
		}
	}
}

var sinkFloat float64

func BenchmarkNewRand(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewRand(int64(i))
			sinkFloat = r.Float64() + r.Float64() + r.Float64() + r.Float64()
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			sinkFloat = r.Float64() + r.Float64() + r.Float64() + r.Float64()
		}
	})
}
