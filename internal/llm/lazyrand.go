package llm

import "math/rand"

// NewRand returns a generator whose stream is exactly that of
// rand.New(rand.NewSource(seed)), without paying for it up front. The
// pipeline derives one generator per completion (SplitSeed) and draws a
// handful of numbers from it; math/rand's source seeds 607 state words —
// 1,841 steps of a multiplicative LCG — before the first draw, which cost
// more than the completion's own work. The source behind NewRand
// materialises only the words a draw reads. It is wrapped in rand.New, so
// Float64, Intn and the rest are the standard library's own code.
func NewRand(seed int64) *rand.Rand {
	s := &lazySource{}
	s.Seed(seed)
	return rand.New(s)
}

// math/rand's additive lagged-Fibonacci generator: draw n returns
// vec[feed] + vec[tap] and stores it back at feed, with feed starting at
// rngLen-rngTap and tap at 0 and both stepping down mod rngLen before each
// draw. Draw j (1-based) therefore reads vec[334-j] and vec[607-j], and the
// first word a draw reads that an earlier draw has written is vec[333] at
// draw 274. Until then every draw is a function of two seed words.
const (
	rngLen    = 607
	rngTap    = 273
	lazyDraws = rngTap // draws served from seed words alone

	lcgMod  = 1<<31 - 1 // seedrand: x ← 48271·x mod 2³¹−1
	lcgMul  = 48271
	lcgSkip = 21 // the LCG step that yields word 0's first third
)

// lcgPow[i] is 48271^(21+3i) mod 2³¹−1: one multiplication takes the reduced
// seed to the first of the three LCG values rngSource.Seed folds into word i.
var lcgPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < lcgSkip; n++ {
		x = x * lcgMul % lcgMod
	}
	for i := range p {
		p[i] = x
		x = x * lcgMul % lcgMod * lcgMul % lcgMod * lcgMul % lcgMod
	}
	return p
}()

// rngCooked is math/rand's unexported table of the same name, XORed into
// every seeded word. It is recovered rather than copied: the generator's
// recurrence y[n] = y[n-607] + y[n-273] runs backwards, so the first 607
// outputs of a real source give back its 607 seeded words, and XORing out
// the LCG part (known, for a known seed) leaves the table.
var rngCooked = func() (cooked [rngLen]int64) {
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var y [2 * rngLen]int64 // y[n+rngLen] is output n; y[:rngLen] the state before it
	for n := 0; n < rngLen; n++ {
		y[n+rngLen] = int64(src.Uint64())
	}
	for n := rngLen - 1; n >= 0; n-- {
		y[n] = y[n+rngLen] - y[n+rngLen-rngTap]
	}
	x0 := reduceSeed(probe)
	for k := range cooked {
		// vec[k] is first read as the feed word of draw 334-k (k ≤ 333,
		// state y[333-k]) or the tap word of draw 607-k (k ≥ 334, one lap on).
		at := rngLen - rngTap - 1 - k
		if at < 0 {
			at += rngLen
		}
		cooked[k] = y[at] ^ lcgWord(k, x0)
	}
	return cooked
}()

// reduceSeed maps a seed into the LCG's domain as rngSource.Seed does.
func reduceSeed(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgWord is the LCG part of seeded word i: three consecutive LCG values
// packed at bit 40, bit 20 and bit 0.
func lcgWord(i int, x0 uint64) int64 {
	x1 := lcgPow[i] * x0 % lcgMod
	x2 := x1 * lcgMul % lcgMod
	x3 := x2 * lcgMul % lcgMod
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3)
}

// lazySource is a rand.Source64 equal to rand.NewSource(seed) draw for draw.
// It is not safe for concurrent use, like the source it stands in for.
type lazySource struct {
	seed  int64
	x0    uint64        // seed reduced into the LCG's domain
	drawn int           // draws served so far, up to lazyDraws
	full  rand.Source64 // takes over at draw lazyDraws+1
}

func (s *lazySource) Seed(seed int64) {
	*s = lazySource{seed: seed, x0: reduceSeed(seed)}
}

func (s *lazySource) word(i int) int64 { return lcgWord(i, s.x0) ^ rngCooked[i] }

func (s *lazySource) Uint64() uint64 {
	if s.drawn < lazyDraws {
		s.drawn++
		return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
	}
	if s.full == nil {
		s.full = rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < lazyDraws; i++ {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
