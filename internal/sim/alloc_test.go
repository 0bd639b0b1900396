package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"aid/internal/rngfast"
)

// The replay allocation contract. The tests run on a machine the test
// owns (pp.runIf(m, ...)), not the pool: sync.Pool drops items at random
// under -race, and a dropped machine would re-grow its logs.

// TestVerdictOnlyRunAllocs pins that a run whose trace nobody keeps
// allocates nothing once the machine has grown: its span, access and
// lockset logs hold ids, not names, so changing the held set costs no
// name slice. A second program's runs read more than 16 scheduler
// values, so each takes the seed's vector from the seed-state cache
// and replays the draws already taken; that path allocates nothing
// either.
func TestVerdictOnlyRunAllocs(t *testing.T) {
	p := NewProgram("twolocks", "Main")
	p.Globals["g"] = 0
	p.AddFunc("Worker",
		Lock{Mu: "a"},
		ReadGlobal{Var: "g", Dst: "x"},
		Lock{Mu: "b"},
		Arith{Dst: "x", A: V("x"), Op: OpAdd, B: Lit(1)},
		WriteGlobal{Var: "g", Src: V("x")},
		Unlock{Mu: "b"},
		ReadGlobal{Var: "g", Dst: "x"},
		Unlock{Mu: "a"},
		WriteGlobal{Var: "g", Src: V("x")},
	)
	p.AddFunc("Main",
		Spawn{Fn: "Worker", Dst: "t"},
		Call{Fn: "Worker"},
		Join{Thread: V("t")},
	)
	// randloop: two threads draw Random and write a global in a loop, so
	// nearly every step draws among two runnable threads.
	q := NewProgram("randloop", "Main")
	q.Globals["g"] = 0
	q.AddFunc("Worker",
		While{Cond: Cond{A: V("i"), Op: LT, B: Lit(20)}, Body: []Op{
			Random{Dst: "x", N: Lit(10)},
			WriteGlobal{Var: "g", Src: V("x")},
			Arith{Dst: "i", A: V("i"), Op: OpAdd, B: Lit(1)},
		}},
	)
	q.AddFunc("Main",
		Spawn{Fn: "Worker", Dst: "t"},
		Call{Fn: "Worker"},
		Join{Thread: V("t")},
	)
	never := func(Verdict) bool { return false }
	const seed = 5
	for _, prog := range []*Program{p, q} {
		pp, err := Prepare(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := newMachine(rngfast.NewCached())
		// Warm up: grow the logs, and let the seed-state cache admit
		// the seed (a run that reads more than 16 values admits it on
		// its second sighting, and the third takes it from the cache).
		for i := 0; i < 3; i++ {
			pp.runIf(m, seed, Budget{}, never)
		}
		run, _ := pp.runIf(m, seed, Budget{}, nil)
		exec := run.Execution(&pp.syms)
		switch prog {
		case p:
			both := 0
			for _, c := range exec.Calls {
				for _, a := range c.Accesses {
					if len(a.Locks) == 2 {
						both++
					}
				}
			}
			if len(exec.Calls) != 3 || both != 2 {
				t.Fatalf("twolocks did not run as intended: %+v", exec.Calls)
			}
		case q:
			// A randloop run reads fewer than 608 values, so only the
			// cache can have turned the source eager (the source's own
			// flag, read by reflection: nothing outside tests asks).
			if m.fast != nil && !reflect.ValueOf(m.fast).Elem().FieldByName("eager").Bool() {
				t.Fatal("randloop did not take the seed's vector from the cache")
			}
		}
		if n := testing.AllocsPerRun(100, func() { pp.runIf(m, seed, Budget{}, never) }); n != 0 {
			t.Fatalf("%s: verdict-only run allocates %v times, want 0", prog.Name, n)
		}
	}
}

// TestPrepareAllocs pins overlay splicing's cost: preparing a plan
// allocates for the plan, not for the program, so a one-method plan
// that takes a lock and signals an order flag costs the same bytes
// whether the program's other bodies hold 10 or 10,000 instructions
// writing as many globals.
func TestPrepareAllocs(t *testing.T) {
	// A fresh plan value per Prepare, as inject's executor builds one
	// per group.
	const n = 200
	plans := make([]Plan, n)
	for i := range plans {
		plans[i] = Plan{"Target": {
			GlobalLocks: []string{"aid.lock:t"},
			SignalAfter: []Signal{{Var: "aid.order:t", Val: 1}},
		}}
	}
	bytesPerPrepare := func(filler int) uint64 {
		p := NewProgram("filler", "Main")
		p.Globals["g"] = 0
		body := make([]Op, filler)
		for i := range body {
			body[i] = WriteGlobal{Var: fmt.Sprintf("f%d", i), Src: Lit(1)}
		}
		p.AddFunc("Filler", body...)
		p.AddFunc("Target", WriteGlobal{Var: "g", Src: Lit(1)})
		p.AddFunc("Main", Call{Fn: "Target"}, Call{Fn: "Filler"})
		pp, err := Prepare(p, nil) // compiles the program
		if err != nil {
			t.Fatal(err)
		}
		if len(pp.code) < filler {
			t.Fatalf("program compiled to %d instructions, want at least %d", len(pp.code), filler)
		}
		// The least of a few trials, each after a collection: a GC cycle
		// inside a trial can allocate for the runtime, and TotalAlloc
		// counts that too.
		best := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, plan := range plans {
				if _, err := Prepare(p, plan); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best / n
	}
	small, large := bytesPerPrepare(10), bytesPerPrepare(10_000)
	if small != large || small == 0 {
		t.Fatalf("Prepare allocates %d B/op beside 10 filler instructions and %d B/op beside 10,000; want the same non-zero figure", small, large)
	}
}
