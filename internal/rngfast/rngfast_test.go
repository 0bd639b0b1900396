package rngfast

import (
	"math/rand"
	"slices"
	"testing"
)

func TestFastRngAvailable(t *testing.T) {
	// The algebraic re-seeding must verify against math/rand on every
	// supported runtime; if this fails the engine silently falls back
	// to the (correct but slower) stock source, which is worth
	// noticing in CI.
	if !fastRngOK {
		t.Fatal("Source failed verification against math/rand; every constructor is on the slow fallback")
	}
}

// TestFastSourceStream checks the reconstructed source against
// math/rand along every path a seed's stream takes: values computed
// from seeded words while the source is lazy, bulk skips, the switch
// to a whole vector (computed at draw 608, or the seed's memoized
// vector once a run has read lazyReads values), and the stdlib's
// stepping after it. Each seed is seen once, then again (admitted to
// the cache), then again (from the cache), and again after the cache's
// wholesale clear at its cap; negative and huge seeds are included.
func TestFastSourceStream(t *testing.T) {
	if !fastRngOK {
		t.Skip("fast source unavailable on this runtime")
	}
	fs := Source{cached: true}
	r := rand.New(rand.NewSource(20261019))
	// The scheduler's inlined draw, over powers of two, small counts and
	// bounds large enough to reject draws; 1<<31-1 is the largest int32
	// bound, where (1<<31)%n is 1.
	bounds := []int32{1, 2, 3, 4, 5, 7, 8, 13, 64, 100, 1<<30 + 1, 1<<31 - 1}
	boundDraws, boundNext := make([]int, len(bounds)), 0
	// stream draws at least 3×rngLen values from fs and the stdlib,
	// mixing skips of random length with Int63, Int31n and rand.Rand
	// draws, from skipFirst skipped values on.
	stream := func(seed int64, skipFirst int) {
		t.Helper()
		fs.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		got := rand.New(&fs)
		fs.Skip(skipFirst)
		for range skipFirst {
			want.Int63()
		}
		taken := skipFirst
		for i := 0; taken < 3*rngLen+50; i++ {
			switch r.Intn(4) {
			case 0:
				n := r.Intn(40)
				fs.Skip(n)
				for range n {
					want.Int63()
				}
				taken += n
			case 1:
				if g, w := fs.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d value %d: Int63 fast %d, stdlib %d", seed, taken, g, w)
				}
				taken++
			case 2:
				// Two draws over the next bound in turn.
				k := boundNext % len(bounds)
				boundNext++
				n := bounds[k]
				for range 2 {
					if g, w := fs.Int31n(n), want.Int31n(n); g != w {
						t.Fatalf("seed %d value %d: Int31n(%d) fast %d, stdlib %d", seed, taken, n, g, w)
					}
					boundDraws[k]++
					taken++
				}
			case 3:
				if g, w := got.Intn(7), want.Intn(7); g != w {
					t.Fatalf("seed %d value %d: Intn fast %d, stdlib %d", seed, taken, g, w)
				}
				taken++
			}
		}
	}
	// Start from an empty cache, so that the first sighting below is
	// each seed's first. The seeds take distinct seen-once slots.
	seedVecCache.Clear()
	seedVecCount.Store(0)
	for i := range seedSeenOnce {
		seedSeenOnce[i].Store(0)
	}
	cached := func(seed int64) bool { _, ok := seedVecCache.Load(seed); return ok }
	seeds := []int64{3, 12345, -98765, 1 << 50, lcgM}
	for _, seed := range seeds {
		stream(seed, 0) // seen once: lazy to draw 607, then computed
		if cached(seed) {
			t.Fatalf("seed %d cached on its first sighting", seed)
		}
	}
	for _, seed := range seeds {
		stream(seed, 0) // seen twice: admitted at the lazyReads-th read
		if !cached(seed) {
			t.Fatalf("seed %d not admitted to the cache on its second sighting", seed)
		}
		stream(seed, r.Intn(rngLen)) // from the cache, after a skip
	}
	// Fill the cache to its cap with other seeds, seen twice each
	// until one admission clears it wholesale, then see the first
	// seeds again: re-admitted, then served from the cache again.
	for s := int64(1 << 40); cached(seeds[0]); s++ {
		for range 2 {
			fs.Seed(s)
			for range lazyReads + 1 {
				fs.Int63()
			}
		}
	}
	for _, seed := range seeds {
		stream(seed, 0)
		stream(seed, 0)
		stream(seed, r.Intn(40))
	}
	// A skip across draw 607 switches to the whole vector mid-skip.
	stream(777, rngLen-3)
	stream(778, 2*rngLen)
	for k, n := range bounds {
		if boundDraws[k] < 200 {
			t.Errorf("Int31n(%d) drawn %d times, want at least 200", n, boundDraws[k])
		}
	}
}

// edgeSeeds are the seed-normalization edge cases: 0 (the stdlib seeds
// it as 89482311), negative seeds, and 2^31-1, which is 0 mod the
// Lehmer modulus.
var edgeSeeds = []int64{0, -1, -98765, lcgM, lcgM + 1, 1, 20261019}

// TestFastSourceNewMatchesStdlib pins New's generator to
// rand.New(rand.NewSource(seed)) through the rand.Rand methods its
// callers use, Shuffle, Intn and Perm, with each call straddling a
// switch in the source: draws 16/17 (where a cached source asks the
// seed cache), 273/274 (the first tap word that is a draw's value) and
// 607/608 (the switch to the whole vector), and on past it.
func TestFastSourceNewMatchesStdlib(t *testing.T) {
	if !fastRngOK {
		t.Skip("fast source unavailable on this runtime")
	}
	calls := []struct {
		name string
		call func(r *rand.Rand) []int
	}{
		{"Shuffle", func(r *rand.Rand) []int {
			out := []int{0, 1, 2, 3, 4, 5, 6, 7}
			r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		}},
		{"Intn", func(r *rand.Rand) []int { return []int{r.Intn(3), r.Intn(7), r.Intn(1 << 20), r.Intn(100)} }},
		{"Perm", func(r *rand.Rand) []int { return r.Perm(6) }},
	}
	for _, seed := range edgeSeeds {
		for _, boundary := range []int{16, 273, 607} {
			for _, c := range calls {
				got, want := New(seed), rand.New(rand.NewSource(seed))
				// Stop two draws short of the boundary, so the call's draws
				// cross it.
				for range boundary - 2 {
					if g, w := got.Int63(), want.Int63(); g != w {
						t.Fatalf("seed %d: Int63 fast %d, stdlib %d", seed, g, w)
					}
				}
				for k := range 4 {
					if g, w := c.call(got), c.call(want); !slices.Equal(g, w) {
						t.Fatalf("seed %d, %s call %d from draw %d: fast %v, stdlib %v", seed, c.name, k, boundary-1, g, w)
					}
				}
				for range rngLen {
					if g, w := got.Int63(), want.Int63(); g != w {
						t.Fatalf("seed %d: Int63 after %s fast %d, stdlib %d", seed, c.name, g, w)
					}
				}
			}
		}
	}
}

// TestFastSourceNewSkipsSeedCache pins that New's sources leave the
// simulator's seed cache alone: 1,000 of them, over 500 seeds seen
// twice each (enough for a cached source to admit every one), drawn
// past draw 608, admit nothing and record no sighting. A source that
// stays lazy allocates itself and its rand.Rand only, never the seeded
// vector.
func TestFastSourceNewSkipsSeedCache(t *testing.T) {
	if !fastRngOK {
		t.Skip("fast source unavailable on this runtime")
	}
	seedVecCache.Clear()
	seedVecCount.Store(0)
	for i := range seedSeenOnce {
		seedSeenOnce[i].Store(0)
	}
	count0 := seedVecCount.Load()
	for i := range 1000 {
		seed := int64(1<<33 + i%500)
		r := New(seed)
		for range rngLen + 100 {
			r.Int63()
		}
		if _, ok := seedVecCache.Load(seed); ok {
			t.Fatalf("seed %d was admitted to the seed cache", seed)
		}
	}
	if n := seedVecCount.Load(); n != count0 {
		t.Fatalf("seed cache count %d after 1,000 sources, want %d", n, count0)
	}
	for i := range seedSeenOnce {
		if v := seedSeenOnce[i].Load(); v != 0 {
			t.Fatalf("seen-once slot %d holds seed %d", i, v-1)
		}
	}
	lazy := testing.AllocsPerRun(100, func() {
		r := New(42)
		for range rngLen {
			r.Int63()
		}
	})
	eager := testing.AllocsPerRun(100, func() {
		r := New(42)
		for range rngLen + 1 {
			r.Int63()
		}
	})
	if lazy != 2 || eager != 3 {
		t.Fatalf("allocations: %v through draw 607 and %v through draw 608, want 2 (source and rand.Rand) and 3 (the vector)", lazy, eager)
	}
}
