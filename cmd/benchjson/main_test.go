package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runPair(baseAllocs, baseBytes, baseNs, curAllocs, curBytes, curNs int64) (*Run, *Run) {
	base := &Run{Figures: []Figure{{
		Name: "Figure7/npgsql", NsPerOp: baseNs, AllocsPerOp: baseAllocs, BytesPerOp: baseBytes,
	}}}
	cur := &Run{Figures: []Figure{{
		Name: "Figure7/npgsql", NsPerOp: curNs, AllocsPerOp: curAllocs, BytesPerOp: curBytes,
	}}}
	return base, cur
}

// TestCheckRegressionsGate pins the -check gate's behavior: an
// injected allocation regression past the tolerance band must fail,
// growth inside the band or under the absolute slack must pass, and
// wall-clock movement must only ever warn.
func TestCheckRegressionsGate(t *testing.T) {
	const tol = 0.15

	// Injected regression: +50% allocs on a large figure fails.
	base, cur := runPair(10000, 2_000_000, 5e6, 15000, 2_000_000, 5e6)
	violations, _ := checkRegressions(base, cur, tol)
	if len(violations) != 1 || !strings.Contains(violations[0], "allocs/op") {
		t.Fatalf("injected allocs regression not caught: %v", violations)
	}

	// Bytes regression alone is caught too.
	base, cur = runPair(10000, 2_000_000, 5e6, 10000, 3_000_000, 5e6)
	violations, _ = checkRegressions(base, cur, tol)
	if len(violations) != 1 || !strings.Contains(violations[0], "bytes/op") {
		t.Fatalf("injected bytes regression not caught: %v", violations)
	}

	// Growth inside the relative band passes.
	base, cur = runPair(10000, 2_000_000, 5e6, 11000, 2_200_000, 5e6)
	if violations, _ = checkRegressions(base, cur, tol); len(violations) != 0 {
		t.Fatalf("in-band growth flagged: %v", violations)
	}

	// Tiny figures breathe under the absolute slack even when the
	// relative growth is large (26 -> 300 allocs is under the floor).
	base, cur = runPair(26, 3000, 9e3, 300, 30_000, 9e3)
	if violations, _ = checkRegressions(base, cur, tol); len(violations) != 0 {
		t.Fatalf("sub-slack growth flagged: %v", violations)
	}
	// ... but not past it.
	base, cur = runPair(26, 3000, 9e3, 600, 3000, 9e3)
	if violations, _ = checkRegressions(base, cur, tol); len(violations) != 1 {
		t.Fatalf("past-slack growth not caught: %v", violations)
	}

	// Wall clock doubling warns, never fails.
	base, cur = runPair(10000, 2_000_000, 5e6, 10000, 2_000_000, 11e6)
	violations, warnings := checkRegressions(base, cur, tol)
	if len(violations) != 0 {
		t.Fatalf("wall-clock movement treated as a violation: %v", violations)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "ns/op") {
		t.Fatalf("wall-clock doubling did not warn: %v", warnings)
	}

	// A dropped figure cannot silently pass the gate.
	base, cur = runPair(10000, 2_000_000, 5e6, 10000, 2_000_000, 5e6)
	cur.Figures[0].Name = "Figure7/renamed"
	if violations, _ = checkRegressions(base, cur, tol); len(violations) != 1 {
		t.Fatalf("dropped baseline figure not caught: %v", violations)
	}

	// Throughput-bounded figures are measured but not gated: their
	// allocation totals scale with how many sessions the host pushes
	// through the measurement window, not with per-session cost.
	base, cur = runPair(1_439_722, 190_705_112, 4.5e8, 3_466_783, 992_678_752, 1.9e9)
	base.Figures[0].Name, cur.Figures[0].Name = "Serve/fairness", "Serve/fairness"
	violations, warnings = checkRegressions(base, cur, tol)
	if len(violations) != 0 || len(warnings) != 0 {
		t.Fatalf("ungated throughput figure flagged: %v / %v", violations, warnings)
	}
	// ... but dropping one still fails.
	cur.Figures = nil
	if violations, _ = checkRegressions(base, cur, tol); len(violations) != 1 {
		t.Fatalf("dropped ungated figure not caught: %v", violations)
	}

	// Improvements and brand-new figures pass clean.
	base, cur = runPair(10000, 2_000_000, 5e6, 4000, 800_000, 2e6)
	cur.Figures = append(cur.Figures, Figure{Name: "Figure7/new", AllocsPerOp: 26})
	violations, warnings = checkRegressions(base, cur, tol)
	if len(violations) != 0 || len(warnings) != 0 {
		t.Fatalf("improvement flagged: %v / %v", violations, warnings)
	}
}

// TestBestOfSplitsTimeAndAllocations pins where each field of a
// recorded figure comes from: ns/op from the fastest pass, allocs/op and
// bytes/op from the pass that allocated least, even when the fastest
// pass allocated most (a process's second pass fills the simulator's
// seed-state cache).
func TestBestOfSplitsTimeAndAllocations(t *testing.T) {
	got := bestOf([]Figure{
		{NsPerOp: 90e6, AllocsPerOp: 10_000, BytesPerOp: 2_000_000},
		{NsPerOp: 70e6, AllocsPerOp: 10_580, BytesPerOp: 3_200_000}, // fastest, allocates most
		{NsPerOp: 80e6, AllocsPerOp: 10_000, BytesPerOp: 1_900_000},
	})
	if got.NsPerOp != 70e6 || got.AllocsPerOp != 10_000 || got.BytesPerOp != 1_900_000 {
		t.Fatalf("bestOf = %+v, want 70ms from the fastest pass, 10000 allocs and 1.9 MB from the least-allocating", got)
	}
}

// TestFailedCheckLeavesOutputUntouched pins that -check gates the
// write: a run that regresses past the band fails without touching the
// -o file, and a run that passes replaces it.
func TestFailedCheckLeavesOutputUntouched(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	const old = "the committed record\n"
	if err := os.WriteFile(out, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	base, cur := runPair(10000, 2_000_000, 5e6, 15000, 2_000_000, 5e6)
	err := finish(out, &Doc{Baseline: base, Current: cur}, true, 0.15, "parent.json", io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not written") {
		t.Fatalf("violating run: err = %v, want a regression error", err)
	}
	if got, err := os.ReadFile(out); err != nil || string(got) != old {
		t.Fatalf("violating run rewrote the record: %q, %v", got, err)
	}

	base, cur = runPair(10000, 2_000_000, 5e6, 10000, 2_000_000, 5e6)
	if err := finish(out, &Doc{Baseline: base, Current: cur}, true, 0.15, "parent.json", io.Discard); err != nil {
		t.Fatalf("passing run: %v", err)
	}
	if got, err := os.ReadFile(out); err != nil || !strings.Contains(string(got), `"Figure7/npgsql"`) {
		t.Fatalf("passing run did not write the record: %q, %v", got, err)
	}
}
