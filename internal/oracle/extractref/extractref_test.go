package extractref_test

import (
	"context"
	"math/rand"
	"testing"

	"aid/internal/casestudy"
	"aid/internal/effects"
	"aid/internal/oracle/extractref"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/trace"
)

// TestExtractMatchesReference requires predicate.Extract to encode
// byte-identically to the map-keyed reference on the six case studies'
// corpora, on a program whose global and array share a name, and on
// random non-canonical trace sets, with and without a duration margin, a
// side-effect-free oracle and a pure-method oracle. Each collected
// corpus is extracted twice, from the collection's logs and from the
// materialized set. (The generated programs' corpora are checked in
// package sim.)
func TestExtractMatchesReference(t *testing.T) {
	t.Run("studies", func(t *testing.T) {
		// Collection sweeps seeds from 1 whatever the algorithm seed, so
		// one corpus per size stands for every algorithm seed.
		for _, s := range append(casestudy.All(), sharedNameStudy()) {
			with := s.Config()
			with.PureMethods = effects.Analyze(s.Program).Prunable
			for _, size := range [][2]int{{50, 50}, {10, 40}} {
				rc := casestudy.CollectConfig{Successes: size[0], Failures: size[1], SeedCap: 4000}
				logs, _, err := casestudy.Collect(context.Background(), s, rc)
				if err != nil {
					t.Fatal(err)
				}
				set := logs.Set()
				for _, cfg := range []predicate.Config{with, {}} {
					if err := extractref.CompareLogs(logs, cfg); err != nil {
						t.Fatalf("%s at %d+%d, from the logs: %v", s.Name, size[0], size[1], err)
					}
					if err := extractref.Compare(set, cfg); err != nil {
						t.Fatalf("%s at %d+%d, from the set: %v", s.Name, size[0], size[1], err)
					}
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(20261018))
		seen := map[predicate.Kind]int{}
		for i := 0; i < 1000; i++ {
			set := randomSet(r)
			for _, cfg := range configs() {
				if err := extractref.Compare(set, cfg); err != nil {
					t.Fatalf("set %d, margin %d, side-effect-free %v, pure %v: %v\nset: %+v",
						i, cfg.DurationMargin, cfg.SideEffectFree != nil, cfg.PureMethods != nil, err, set)
				}
				for _, p := range predicate.Extract(set, cfg).Preds {
					seen[p.Kind]++
				}
			}
		}
		for _, k := range []predicate.Kind{
			predicate.KindFailure, predicate.KindMethodFails, predicate.KindTooSlow,
			predicate.KindTooFast, predicate.KindStartsLate, predicate.KindWrongReturn,
			predicate.KindDataRace, predicate.KindOrderViolation, predicate.KindAtomicityViolation,
		} {
			if seen[k] == 0 {
				t.Errorf("no random set yields a %s predicate", k)
			}
		}
		t.Logf("predicates by kind: %v", seen)
	})
}

// sharedNameStudy is a program whose global and array are both named
// "x" (one object in a trace, two ids in the machine's logs): a writer
// thread writes both while the reader reads both, and the reader throws
// when it sees the global written before the array.
func sharedNameStudy() *casestudy.Study {
	p := sim.NewProgram("sharedname", "Main")
	p.Globals["x"] = 0
	p.Arrays["x"] = []int64{0, 0}
	p.AddFunc("Writer",
		sim.WriteGlobal{Var: "x", Src: sim.Lit(1)},
		sim.ArrayWrite{Arr: "x", Index: sim.Lit(0), Src: sim.Lit(1)},
	)
	p.AddFunc("Reader",
		sim.ReadGlobal{Var: "x", Dst: "g"},
		sim.ArrayRead{Arr: "x", Index: sim.Lit(0), Dst: "a"},
		sim.If{Cond: sim.Cond{A: sim.V("g"), Op: sim.GT, B: sim.V("a")},
			Then: []sim.Op{sim.Throw{Kind: "Torn"}}},
	)
	p.AddFunc("Main",
		sim.Spawn{Fn: "Writer", Dst: "w"},
		sim.Call{Fn: "Reader"},
		sim.Join{Thread: sim.V("w")},
	)
	return &casestudy.Study{Name: p.Name, Program: p, FailureSig: sim.UncaughtSig("Torn")}
}

// configs is every combination of a duration margin, a side-effect-free
// oracle and a pure-method oracle, each set or not.
func configs() []predicate.Config {
	var out []predicate.Config
	for bits := 0; bits < 8; bits++ {
		var cfg predicate.Config
		if bits&1 != 0 {
			cfg.DurationMargin = 2
		}
		if bits&2 != 0 {
			cfg.SideEffectFree = func(m string) bool { return m < "C" }
		}
		if bits&4 != 0 {
			cfg.PureMethods = func(m string) bool { return m == "B" || m == "E" }
		}
		out = append(out, cfg)
	}
	return out
}

// randomSet builds a corpus that no trace producer would emit: each
// execution perturbs one template of calls, so executions share
// instances, but calls come in any order, instance numbers repeat or
// are negative or 4e9, windows shift, end before they start, overlap
// without nesting or repeat on one thread, and accesses hold nested
// locksets. Method and object names contain the separators of
// predicate IDs, so distinct races can share an ID.
func randomSet(r *rand.Rand) *trace.Set {
	methods := []string{"A", "B", "C", "D", "E", "E|F", "F@X"}
	objs := []trace.ObjectID{"X", "Y", "Z", "X@Y"}
	locksets := [][]string{nil, {"L1"}, {"L1", "L2"}, {"L2"}, {"L2", "L1", "L3"}}
	insts := []int{0, 0, 1, 2, -1, 4_000_000_000}
	accesses := func(start, end trace.Time) []trace.Access {
		var out []trace.Access
		for n := r.Intn(4); n > 0; n-- {
			out = append(out, trace.Access{
				Object: objs[r.Intn(len(objs))],
				Kind:   trace.AccessKind(r.Intn(2)),
				At:     start + trace.Time(r.Intn(int(max(end-start, 0))+3)) - 1,
				Locks:  locksets[r.Intn(len(locksets))],
			})
		}
		return out
	}
	tmpl := make([]trace.MethodCall, 1+r.Intn(8))
	for i := range tmpl {
		start := trace.Time(r.Intn(30))
		end := start + trace.Time(r.Intn(15))
		if r.Intn(20) == 0 {
			end = start - 1
		}
		tmpl[i] = trace.MethodCall{
			Method:   methods[r.Intn(len(methods))],
			Instance: insts[r.Intn(len(insts))],
			Thread:   trace.ThreadID(r.Intn(3)),
			Start:    start,
			End:      end,
			Return:   trace.Value{Int: int64(r.Intn(3))},
		}
		if r.Intn(3) == 0 {
			tmpl[i].Return = trace.Value{Void: true}
		}
		tmpl[i].Accesses = accesses(start, end)
	}
	set := &trace.Set{}
	for e := 2 + r.Intn(9); e > 0; e-- {
		exec := trace.Execution{ID: "e" + string(rune('a'+e)), Outcome: trace.Outcome(r.Intn(2))}
		if exec.Outcome == trace.Failure {
			exec.FailureSig = "boom"
		}
		for _, c := range tmpl {
			if r.Intn(10) == 0 {
				continue // dropped
			}
			if r.Intn(5) == 0 {
				d := trace.Time(r.Intn(13) - 6)
				c.Start, c.End = c.Start+d, c.End+d+trace.Time(r.Intn(3))
			}
			if r.Intn(10) == 0 {
				c.Instance = insts[r.Intn(len(insts))]
			}
			if r.Intn(6) == 0 {
				c.Return = trace.Value{Int: int64(r.Intn(3))}
			}
			if r.Intn(10) == 0 {
				c.Exception = "Boom"
			}
			if r.Intn(3) == 0 {
				c.Accesses = accesses(c.Start, c.End)
			}
			exec.Calls = append(exec.Calls, c)
			if r.Intn(10) == 0 {
				exec.Calls = append(exec.Calls, c) // the same window twice on one thread
			}
		}
		if r.Intn(2) == 0 {
			r.Shuffle(len(exec.Calls), func(i, j int) { exec.Calls[i], exec.Calls[j] = exec.Calls[j], exec.Calls[i] })
		}
		set.Executions = append(set.Executions, exec)
	}
	return set
}
