package sim

import (
	"reflect"
	"testing"
)

// finalStateProgram exercises every shared-state op kind: declared and
// op-referenced globals, arrays with writes and a resize, plus a
// referenced-but-never-written global (snapshots cover it as zero).
func finalStateProgram() *Program {
	p := NewProgram("finalstate", "Main")
	p.Globals["declared"] = 5
	p.Arrays["buf"] = []int64{1, 2, 3}
	p.AddFunc("Worker",
		ReadGlobal{Var: "declared", Dst: "d"},
		Arith{Dst: "d", A: V("d"), Op: OpAdd, B: Lit(1)},
		WriteGlobal{Var: "derived", Src: V("d")},
		ArrayWrite{Arr: "buf", Index: Lit(0), Src: V("d")},
		ArrayResize{Arr: "grown", Len: Lit(2)},
		ArrayWrite{Arr: "grown", Index: Lit(1), Src: Lit(9)},
	)
	p.AddFunc("Main",
		Call{Fn: "Worker", Dst: ""},
		ReadGlobal{Var: "neverwritten", Dst: "x"},
		ArrayLen{Arr: "buf", Dst: "n"},
		WriteGlobal{Var: "declared", Src: V("n")},
	)
	return p
}

// TestFinalStateEngineEquivalence: both engines snapshot the same key
// universe with the same values, with and without an injection plan,
// and plan-added signal flags stay out of the snapshot.
func TestFinalStateEngineEquivalence(t *testing.T) {
	p := finalStateProgram()
	plans := []Plan{
		nil,
		{"Worker": {ForceReturnVoid: true}},
		{"Worker": {SignalAfter: []Signal{{Var: "planflag", Val: 1}}}},
	}
	for _, seed := range []int64{1, 3, 11} {
		for pi, plan := range plans {
			pp, err := Prepare(p, plan)
			if err != nil {
				t.Fatalf("plan %d: %v", pi, err)
			}
			compiled := pp.FinalState(seed, 0)
			var interpreted FinalState
			if _, err := runInterpreted(p, seed, RunOptions{Plan: plan, Final: &interpreted}); err != nil {
				t.Fatalf("interpreted seed %d plan %d: %v", seed, pi, err)
			}
			if !reflect.DeepEqual(compiled, interpreted) {
				t.Fatalf("seed %d plan %d: snapshots diverge\ncompiled:    %+v\ninterpreted: %+v",
					seed, pi, compiled, interpreted)
			}
			if _, ok := compiled.Globals["planflag"]; ok {
				t.Fatalf("seed %d plan %d: plan-added signal flag leaked into the snapshot", seed, pi)
			}
			if _, ok := compiled.Globals["neverwritten"]; !ok {
				t.Fatalf("seed %d plan %d: referenced-but-unwritten global missing from snapshot", seed, pi)
			}
		}
	}
}

// TestFinalStateValues pins the snapshot contents for the deterministic
// single-threaded program above.
func TestFinalStateValues(t *testing.T) {
	pp, err := Prepare(finalStateProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := pp.FinalState(1, 0)
	wantGlobals := map[string]int64{
		"declared":     3, // overwritten with len(buf) at the end
		"derived":      6, // 5+1
		"neverwritten": 0,
	}
	if !reflect.DeepEqual(fs.Globals, wantGlobals) {
		t.Errorf("Globals = %v, want %v", fs.Globals, wantGlobals)
	}
	wantArrays := map[string][]int64{
		"buf":   {6, 2, 3},
		"grown": {0, 9},
	}
	if !reflect.DeepEqual(fs.Arrays, wantArrays) {
		t.Errorf("Arrays = %v, want %v", fs.Arrays, wantArrays)
	}
}

// TestFinalStateEmptyArrayNil: empty arrays normalize to nil entries on
// both engines so DeepEqual comparisons are engine-independent.
func TestFinalStateEmptyArrayNil(t *testing.T) {
	p := NewProgram("empty", "Main")
	p.Arrays["empty"] = nil
	p.AddFunc("Main", ArrayLen{Arr: "empty", Dst: "n"})
	pp, err := Prepare(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var interpreted FinalState
	if _, err := runInterpreted(p, 1, RunOptions{Final: &interpreted}); err != nil {
		t.Fatal(err)
	}
	for name, fs := range map[string]FinalState{"compiled": pp.FinalState(1, 0), "interpreter": interpreted} {
		v, ok := fs.Arrays["empty"]
		if !ok {
			t.Fatalf("%s: empty array missing from snapshot", name)
		}
		if v != nil {
			t.Errorf("%s: empty array = %v, want nil", name, v)
		}
	}
}
