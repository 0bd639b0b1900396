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
	// to the (correct but ~10µs-per-seed) stock source, which is worth
	// noticing in CI.
	if !fastRngOK {
		t.Fatal("fastSource failed verification against math/rand; replay seeding is on the slow fallback")
	}
}

// TestFastSourceStream checks the reconstructed source against
// math/rand, including the memoized-seed path (the second Seed of the
// same value restores the cached vector) and negative/huge seeds.
func TestFastSourceStream(t *testing.T) {
	if !fastRngOK {
		t.Skip("fast source unavailable on this runtime")
	}
	var fs fastSource
	seeds := []int64{3, 3, 12345, -98765, 3, 1 << 50, 12345}
	for _, seed := range seeds {
		fs.Seed(seed)
		want := rand.NewSource(seed)
		for i := 0; i < 700; i++ {
			if got, w := fs.Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d draw %d: fast %d, stdlib %d", seed, i, got, w)
			}
		}
	}
	// Through rand.Rand, as opRandom consumes it.
	fr := rand.New(&fs)
	fs.Seed(777)
	wr := rand.New(rand.NewSource(777))
	for i := 0; i < 100; i++ {
		if got, w := fr.Intn(7), wr.Intn(7); got != w {
			t.Fatalf("Intn draw %d: fast %d, stdlib %d", i, got, w)
		}
	}
	// The scheduler's inlined draw, over powers of two, small counts and
	// bounds large enough to reject draws.
	fs.Seed(778)
	wr = rand.New(rand.NewSource(778))
	for _, n := range []int32{1, 2, 3, 4, 5, 7, 8, 13, 64, 100, 1<<30 + 1, 1<<31 - 1} {
		for i := 0; i < 200; i++ {
			if got, w := fs.int31n(n), int32(wr.Intn(int(n))); got != w {
				t.Fatalf("int31n(%d) draw %d: fast %d, stdlib %d", n, i, got, w)
			}
		}
	}
}
