package sim

import (
	"math/rand"
	"testing"
)

func TestPrepareNilPlanSharesBase(t *testing.T) {
	p := racyProgram()
	a, err := Prepare(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("nil-plan Prepare should return the shared base compilation")
	}
	// A plan that is non-empty but only names unknown methods is inert.
	c, err := Prepare(p, Plan{"NoSuchMethod": {DelayStart: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("plan naming only unknown methods should be inert")
	}
}

// TestPrepareSharesCompiledCode pins overlay splicing: a plan's
// Prepared runs on the compiled program's own instruction array, adds
// one stub per entry step, and its last prologue step continues at the
// method's body in the shared code. A method injected only at its end
// enters its body directly.
func TestPrepareSharesCompiledCode(t *testing.T) {
	p := racyProgram()
	base, err := Prepare(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{
		"Worker": {GlobalLocks: []string{"inj"}, DelayStart: 2},
		"Main":   {DelayReturn: 1},
	}
	a, err := Prepare(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	if &a.code[0] != &base.code[0] || len(a.code) != len(base.code) {
		t.Fatal("a plan's Prepared must share the compiled instruction array")
	}
	if len(a.stubs) != 2 || len(a.inj) != 2 {
		t.Fatalf("stubs %d, metadata %d; want 2 (lock, sleep) and 2 (Main, Worker)", len(a.stubs), len(a.inj))
	}
	c := base.c
	w, mainFn := c.fnIdx["Worker"], c.fnIdx["Main"]
	if got := a.fns[w].entry; got != int32(len(a.code)) {
		t.Fatalf("Worker enters at %d, want its stub at %d", got, len(a.code))
	}
	if got := a.stubs[1].c; a.stubs[0].c != a.fns[w].entry+1 || got != c.funcs[w].entry {
		t.Fatalf("prologue links %d -> %d; want %d -> body at %d", a.stubs[0].c, got, a.fns[w].entry+1, c.funcs[w].entry)
	}
	if a.fns[mainFn].entry != c.funcs[mainFn].entry || a.fns[mainFn].inj < 0 {
		t.Fatal("an end-only injection must enter the body directly and keep its metadata")
	}
	if base.fns[w].inj != -1 || base.fns[w].entry != c.funcs[w].entry {
		t.Fatal("preparing a plan changed the shared base")
	}
}

func TestFastRngAvailable(t *testing.T) {
	// The algebraic re-seeding must verify against math/rand on every
	// supported runtime; if this fails the engine silently falls back
	// to the (correct but slower) stock source, which is worth
	// noticing in CI.
	if !fastRngOK {
		t.Fatal("fastSource failed verification against math/rand; replay seeding is on the slow fallback")
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
	var fs fastSource
	r := rand.New(rand.NewSource(20261019))
	// The scheduler's inlined draw, over powers of two, small counts and
	// bounds large enough to reject draws; 1<<31-1 is the largest int32
	// bound, where (1<<31)%n is 1.
	bounds := []int32{1, 2, 3, 4, 5, 7, 8, 13, 64, 100, 1<<30 + 1, 1<<31 - 1}
	boundDraws, boundNext := make([]int, len(bounds)), 0
	// stream draws at least 3×rngLen values from fs and the stdlib,
	// mixing skips of random length with Int63, int31n and rand.Rand
	// draws, from skipFirst skipped values on.
	stream := func(seed int64, skipFirst int) {
		t.Helper()
		fs.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		got := rand.New(&fs)
		fs.skip(skipFirst)
		for range skipFirst {
			want.Int63()
		}
		taken := skipFirst
		for i := 0; taken < 3*rngLen+50; i++ {
			switch r.Intn(4) {
			case 0:
				n := r.Intn(40)
				fs.skip(n)
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
					if g, w := fs.int31n(n), want.Int31n(n); g != w {
						t.Fatalf("seed %d value %d: int31n(%d) fast %d, stdlib %d", seed, taken, n, g, w)
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
			t.Errorf("int31n(%d) drawn %d times, want at least 200", n, boundDraws[k])
		}
	}
}
