package sim

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The scheduler draws from math/rand's default source, and the trace
// contract pins its exact stream: every historical trace (and the
// interpreter oracle) was produced by rand.New(rand.NewSource(seed)).
// Re-seeding that source is the single hottest operation of a short
// replay — ~1800 sequential Lehmer-LCG steps, ~10µs, more than the
// whole simulation for small programs (see EXPERIMENTS.md).
//
// fastSource reproduces rngSource's stream bit-for-bit but seeds in
// O(1) sequential depth: seeding computes x_n = 48271^n·x0 mod 2^31-1
// for the 1821 positions the stdlib reaches by stepping, using a
// precomputed power table, and XORs in the stdlib's additive-Fibonacci
// cooked constants. The cooked table is not duplicated from the
// standard library: it is recovered once at init by seeding a real
// rngSource and XOR-ing out the algebraically known LCG part, then the
// whole construction is verified output-for-output against math/rand.
// If recovery or verification fails on some future Go runtime, every
// consumer falls back to the stock source — slower, never wrong.
//
// Seeded states are also memoized (vec depends only on the seed), so
// intervention replays — which re-run a small fixed seed set under
// many plans — skip even the O(1)-depth seeding and start from a
// 4.9KB memcpy.

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
// fastSource may be used.
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

// lcgVec fills vec with the pure LCG part of a stdlib seeding (before
// the cooked XOR) for the given seed.
func lcgVec(seed int64, vec *[rngLen]uint64) {
	x0 := lcgSeedBase(seed)
	for i := 0; i < rngLen; i++ {
		a := lcgMul(lcgPow[3*i], x0)
		b := lcgMul(lcgPow[3*i+1], x0)
		c := lcgMul(lcgPow[3*i+2], x0)
		vec[i] = a<<40 ^ b<<20 ^ c
	}
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
	var pure [rngLen]uint64
	lcgVec(1, &pure)
	for i := 0; i < rngLen; i++ {
		rngCookedRec[i] = uint64(std.vec[i]) ^ pure[i]
	}
	return true
}

// verifyFastSource checks the reconstruction against math/rand across
// seed normalization edge cases and feed/tap wraparound.
func verifyFastSource() bool {
	seeds := []int64{0, 1, 2, 42, -7, lcgM, lcgM + 1, 1 << 40, -1 << 35}
	var fs fastSource
	for _, seed := range seeds {
		want := rand.NewSource(seed)
		fs.Seed(seed)
		for i := 0; i < 2*rngLen; i++ {
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

// seedVecCache memoizes seeded vectors (they depend only on the seed).
// A seed is only admitted once it has been seen twice (seedSeenOnce),
// so single-use collection-sweep seeds never pay the 4.9KB copy, while
// replay seeds — re-run under many plans — hit the memcpy path from
// their second run on. The cache is generational: at the cap it is
// cleared wholesale and hot seeds simply re-enter.
var (
	seedVecCache  sync.Map // int64 -> *[rngLen]uint64
	seedVecCount  atomic.Int64
	seedVecMaxLen = int64(512)
	seedSeenOnce  [1024]atomic.Int64 // stores seed+1; 0 = empty
)

// fastSource is a bit-exact stand-in for math/rand's rngSource with
// O(1)-depth seeding. It is not safe for concurrent use (like the
// stdlib source); each machine owns one.
type fastSource struct {
	tap, feed int
	vec       [rngLen]uint64
}

func (s *fastSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	if v, ok := seedVecCache.Load(seed); ok {
		s.vec = *v.(*[rngLen]uint64)
		return
	}
	lcgVec(seed, &s.vec)
	for i := range s.vec {
		s.vec[i] ^= rngCookedRec[i]
	}
	slot := &seedSeenOnce[uint64(seed)*2654435761%uint64(len(seedSeenOnce))]
	if slot.Load() != seed+1 {
		slot.Store(seed + 1)
		return
	}
	if seedVecCount.Load() >= seedVecMaxLen {
		seedVecCache.Range(func(k, _ any) bool { seedVecCache.Delete(k); return true })
		seedVecCount.Store(0)
	}
	saved := s.vec
	if _, loaded := seedVecCache.LoadOrStore(seed, &saved); !loaded {
		seedVecCount.Add(1)
	}
}

func (s *fastSource) uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

func (s *fastSource) Int63() int64   { return int64(s.uint64() & rngMask) }
func (s *fastSource) Uint64() uint64 { return s.uint64() }

// int31n is math/rand's Rand.Int31n over s, inlined for the machine's
// per-step scheduler draw: the same draws and the same result, without
// the interface call per draw. n must be positive.
func (s *fastSource) int31n(n int32) int32 {
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

// newSchedulerSource returns the fastest available source that is
// bit-identical to rand.NewSource.
func newSchedulerSource() rand.Source {
	if fastRngOK {
		return &fastSource{}
	}
	return rand.NewSource(0)
}
