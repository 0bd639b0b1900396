// Package rngfast is a bit-exact, lazily seeded stand-in for
// math/rand's default source. The simulator's scheduler draws from it,
// and so does every consumer whose pinned output depends on a seeded
// stream: discovery's tie breaking, the TAGT shuffle, synthetic
// generation, the adaptive trial oracle and flaky worlds' noise.
//
// Every historical trace (and the interpreter oracle) was produced by
// rand.New(rand.NewSource(seed)), and the Fig. 8 tables, reports and
// memos pin the same streams. The stdlib seeds that source with ~1800
// sequential Lehmer-LCG steps into a 607-word vector, which costs more
// than the whole simulation of a short replay, or than the few dozen
// values a discovery run draws.
//
// Source reproduces rngSource's stream bit-for-bit but seeds in O(1)
// sequential depth: word i of the seeded vector is computed from
// x_n = 48271^n·x0 mod 2^31-1 at its three positions, using a
// precomputed power table, XORed with the stdlib's additive-Fibonacci
// cooked constant. The cooked table is not duplicated from the
// standard library: it is recovered once at init by seeding a real
// rngSource and XOR-ing out the algebraically known LCG part, then the
// whole construction is verified output-for-output against math/rand.
// If recovery or verification fails on some future Go runtime, every
// constructor falls back to the stock source — slower, never wrong.
//
// Seeding is lazy. Draw k (k = 1, 2, ...) adds the word at tap
// position 607-k to the one at feed position 334-k (mod 607) and stores
// the sum at the feed position, so for k <= 607 its value is the seeded
// feed word plus the seeded tap word (k <= 273) or draw k-273's value:
// two to four seeded words, computed directly. Seed therefore computes
// nothing, and a skipped draw costs a counter increment. Most streams
// read a few values and stay lazy to the end, and never allocate the
// vector. A stream that reads many takes the whole vector once it
// reaches draw 608, computed, or, for a source built by NewCached, from
// the seed cache once it has computed lazyReads values; it replays the
// draws taken so far into the vector and steps through it as the
// stdlib does.
package rngfast

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lcgM    = 1<<31 - 1 // 2^31-1, prime; the Lehmer modulus
	lcgA    = 48271
	rngWarm = 20 // stdlib discards 20 LCG values before filling vec
)

// lcgMul returns a*b mod 2^31-1 for a, b in [0, 2^31-1), via Mersenne
// folding (no division).
func lcgMul(a, b uint64) uint64 {
	v := a * b // < 2^62
	v = (v >> 31) + (v & lcgM)
	v = (v >> 31) + (v & lcgM)
	if v >= lcgM {
		v -= lcgM
	}
	return v
}

// lcgPow[k] = 48271^(rngWarm+1+k) mod 2^31-1: the multiplier that maps
// the normalized seed straight to the LCG value the stdlib reaches
// after rngWarm+1+k sequential steps.
var lcgPow [3 * rngLen]uint64

// rngCookedRec is the stdlib's additive-Fibonacci seeding constant
// table, recovered at init (see recoverCooked).
var rngCookedRec [rngLen]uint64

// fastRngOK reports whether recovery and verification succeeded and
// Source may be used.
var fastRngOK bool

// stdSourceLayout mirrors math/rand.rngSource for the one-time cooked
// recovery; the layout is checked before use and the result is
// verified behaviourally, so a mismatch can only cause fallback.
type stdSourceLayout struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// lcgSeedBase normalizes a seed exactly like rngSource.Seed.
func lcgSeedBase(seed int64) uint64 {
	seed = seed % lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgWord is word i of the pure LCG part of a stdlib seeding (before
// the cooked XOR) from the normalized seed x0.
func lcgWord(x0 uint64, i int) uint64 {
	a := lcgMul(lcgPow[3*i], x0)
	b := lcgMul(lcgPow[3*i+1], x0)
	c := lcgMul(lcgPow[3*i+2], x0)
	return a<<40 ^ b<<20 ^ c
}

func recoverCooked() bool {
	src := rand.NewSource(1)
	v := reflect.ValueOf(src)
	if v.Kind() != reflect.Ptr || v.Elem().Kind() != reflect.Struct {
		return false
	}
	if v.Elem().Type().Size() != unsafe.Sizeof(stdSourceLayout{}) {
		return false
	}
	std := (*stdSourceLayout)(unsafe.Pointer(v.Pointer()))
	x0 := lcgSeedBase(1)
	for i := 0; i < rngLen; i++ {
		rngCookedRec[i] = uint64(std.vec[i]) ^ lcgWord(x0, i)
	}
	return true
}

// verifyFastSource checks the reconstruction against math/rand across
// seed normalization edge cases and feed/tap wraparound, on the lazy
// seeding path, with bulk skips between draws, and across the switch to
// the computed whole vector at draw 608.
func verifyFastSource() bool {
	seeds := []int64{0, 1, 2, 42, -7, lcgM, lcgM + 1, 1 << 40, -1 << 35}
	var fs Source
	for _, seed := range seeds {
		want := rand.NewSource(seed)
		fs.Seed(seed)
		for i := 0; i < 2*rngLen; i++ {
			n := i % 3
			fs.Skip(n)
			for ; n > 0; n-- {
				want.Int63()
			}
			if fs.Int63() != want.Int63() {
				return false
			}
		}
	}
	return true
}

func init() {
	p := uint64(1)
	for i := 0; i < rngWarm+1; i++ {
		p = lcgMul(p, lcgA)
	}
	for k := range lcgPow {
		lcgPow[k] = p
		p = lcgMul(p, lcgA)
	}
	fastRngOK = recoverCooked() && verifyFastSource()
}

// seedVecCache memoizes seeded vectors (they depend only on the seed)
// for the simulator's runs that read many values: a lazy read costs two
// to four seeded words, while a cached vector is one copy, after which
// each draw is one add. A seed is admitted only once such a run has seen
// it twice (seedSeenOnce), so single-use collection-sweep seeds never
// pay for a whole vector. The cache is generational: at the cap it is
// cleared wholesale and hot seeds simply re-enter.
//
// Only sources built by NewCached read or fill it. A replay seed recurs
// across a study's replays, so its vector is worth keeping; a discovery
// or generation seed drives one stream, and admitting those (the four
// Fig. 8 approaches share one seed per instance, so every seed would be
// seen twice) would fill the cache with vectors nobody reads again.
var (
	seedVecCache  sync.Map // int64 -> *[rngLen]uint64
	seedVecCount  atomic.Int64
	seedVecMaxLen = int64(512)
	seedSeenOnce  [1024]atomic.Int64 // stores seed+1; 0 = empty
)

// lazyReads is how many values a cached source computes from seeded
// words before it asks the cache for the whole vector.
const lazyReads = 16

// Source is a bit-exact stand-in for math/rand's rngSource with
// O(1)-depth, lazy seeding. It is not safe for concurrent use (like the
// stdlib source).
type Source struct {
	seed int64
	x0   uint64 // normalized seed
	// While the source is lazy, n counts the draws taken and left the
	// values to compute before the cache is asked (once) for the whole
	// vector; left is negative when the cache is not to be asked.
	n, left int
	eager   bool
	// cached marks a source built by NewCached, which consults the seed
	// cache.
	cached    bool
	tap, feed int
	// vec holds the stdlib's state once the source is eager. It is
	// allocated on the first switch and kept across Seed calls.
	vec *[rngLen]uint64
}

// Seed restarts the stream at seed, as rand.NewSource(seed) starts it.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.x0 = lcgSeedBase(seed)
	s.n, s.left = 0, -1
	if s.cached {
		s.left = lazyReads
	}
	s.eager = false
}

// seedWord computes word i of the seeded vector.
func (s *Source) seedWord(i int) uint64 {
	return lcgWord(s.x0, i) ^ rngCookedRec[i]
}

// drawValue is the value of draw k, 1 <= k <= rngLen, from seeded
// words alone: no feed position is written twice in the first rngLen
// draws, and the tap word of draw k > rngTap is draw k-rngTap's value.
func (s *Source) drawValue(k int) uint64 {
	var v uint64
	for ; k > rngTap; k -= rngTap {
		v += s.seedWord((rngLen - rngTap - k + rngLen) % rngLen)
	}
	return v + s.seedWord(rngLen-rngTap-k) + s.seedWord(rngLen-k)
}

// cachedVec returns the seed's memoized vector, admitting it on its
// second sighting, or nil.
func (s *Source) cachedVec() *[rngLen]uint64 {
	if v, ok := seedVecCache.Load(s.seed); ok {
		return v.(*[rngLen]uint64)
	}
	slot := &seedSeenOnce[uint64(s.seed)*2654435761%uint64(len(seedSeenOnce))]
	if slot.Load() != s.seed+1 {
		slot.Store(s.seed + 1)
		return nil
	}
	if seedVecCount.Load() >= seedVecMaxLen {
		seedVecCache.Range(func(k, _ any) bool { seedVecCache.Delete(k); return true })
		seedVecCount.Store(0)
	}
	vec := new([rngLen]uint64)
	for i := range vec {
		vec[i] = s.seedWord(i)
	}
	if _, loaded := seedVecCache.LoadOrStore(s.seed, vec); !loaded {
		seedVecCount.Add(1)
	}
	return vec
}

// seedAll turns the source eager: it seeds vec, from vec0 when
// non-nil, and replays the n draws taken so far into it.
func (s *Source) seedAll(vec0 *[rngLen]uint64) {
	if s.vec == nil {
		s.vec = new([rngLen]uint64)
	}
	if vec0 != nil {
		*s.vec = *vec0
	} else {
		for i := range s.vec {
			s.vec[i] = s.seedWord(i)
		}
	}
	s.tap, s.feed = 0, rngLen-rngTap
	for range s.n {
		s.next()
	}
	s.eager = true
}

// next is one step of the stdlib's additive lagged Fibonacci generator
// over vec.
func (s *Source) next() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	vec := s.vec
	x := vec[s.feed] + vec[s.tap]
	vec[s.feed] = x
	return x
}

func (s *Source) uint64() uint64 {
	if !s.eager {
		switch {
		case s.n == rngLen:
			s.seedAll(nil)
		case s.left != 0:
			s.left--
			s.n++
			return s.drawValue(s.n)
		default:
			if vec0 := s.cachedVec(); vec0 != nil {
				s.seedAll(vec0)
			} else {
				s.left = -1 // lazy to the end: no more cache lookups
				s.n++
				return s.drawValue(s.n)
			}
		}
	}
	return s.next()
}

// Int63 returns the stream's next value, as rngSource.Int63 does.
func (s *Source) Int63() int64 { return int64(s.uint64() & rngMask) }

// Uint64 returns the stream's next value, as rngSource.Uint64 does.
func (s *Source) Uint64() uint64 { return s.uint64() }

// Eager reports that the source holds the whole seeded vector.
func (s *Source) Eager() bool { return s.eager }

// Skip advances the stream by n values without returning them.
func (s *Source) Skip(n int) {
	if !s.eager {
		k := min(n, rngLen-s.n)
		s.n += k
		n -= k
	}
	for ; n > 0; n-- {
		s.uint64()
	}
}

// Int31n is math/rand's Rand.Int31n over s, inlined for the simulator's
// scheduler draw among two or more runnable threads: the same draws and
// the same result, without the interface call per draw. n must be
// positive.
func (s *Source) Int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// NewCached returns the fastest available source that is bit-identical
// to rand.NewSource, for a simulator machine that reseeds it once per
// run: a run that reads more than lazyReads values takes its seed's
// vector from the seed cache once the seed has been seen twice. Seed it
// before drawing.
func NewCached() rand.Source {
	if fastRngOK {
		return &Source{cached: true}
	}
	return rand.NewSource(0)
}

// New returns rand.New(rand.NewSource(seed))'s generator without the
// stdlib's seeding cost: the same stream, computed lazily, allocating
// the seeded vector only if it reaches draw 608. It never reads or
// fills the seed cache.
func New(seed int64) *rand.Rand {
	if !fastRngOK {
		return rand.New(rand.NewSource(seed))
	}
	s := &Source{}
	s.Seed(seed)
	return rand.New(s)
}
