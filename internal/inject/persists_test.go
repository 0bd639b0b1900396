package inject

import (
	"context"
	"testing"

	"aid/internal/predicate"
)

// The fixture's two single-predicate groups: overriding Check's return
// stops the failure on every replay seed; speeding up Slow leaves it
// persisting on every seed.
var (
	stopGroup    = []predicate.ID{"ret:Check#0"}
	persistGroup = []predicate.ID{"slow:Slow#0"}
)

// TestPersistsRunsUsed pins the early exit: a query stops at the first
// persisting seed (one run), and replays every seed when none
// persists.
func TestPersistsRunsUsed(t *testing.T) {
	_, _, exec := executorFixture(t)
	got, err := exec.Persists(context.Background(), persistGroup)
	if err != nil || !got {
		t.Fatalf("Persists(%v) = %v, %v; want true", persistGroup, got, err)
	}
	if exec.RunsUsed != 1 {
		t.Fatalf("RunsUsed = %d after a persisting first seed, want 1", exec.RunsUsed)
	}
	got, err = exec.Persists(context.Background(), stopGroup)
	if err != nil || got {
		t.Fatalf("Persists(%v) = %v, %v; want false", stopGroup, got, err)
	}
	if want := 1 + len(exec.Seeds); exec.RunsUsed != want {
		t.Fatalf("RunsUsed = %d, want %d (every seed replayed when none persists)", exec.RunsUsed, want)
	}
}

// TestPersistsQuarantinesCrashingReplay checks a replay panic in the
// verdict query is contained exactly as in Intervene: the (group, seed)
// pair is quarantined, counted as missed, and the verdict comes from
// the other seeds.
func TestPersistsQuarantinesCrashingReplay(t *testing.T) {
	for _, tc := range []struct {
		group []predicate.ID
		crash int // index into Seeds
		want  bool
		runs  int
	}{
		{persistGroup, 0, true, 1},   // the next seed persists
		{stopGroup, 1, false, 4 - 1}, // the other seeds all stop
	} {
		_, _, exec := executorFixture(t)
		crashSeed := exec.Seeds[tc.crash]
		crashes := 0
		withReplayHook(t, func(group []predicate.ID, seed int64) {
			if seed == crashSeed {
				crashes++
				panic("injected crash")
			}
		})
		got, err := exec.Persists(context.Background(), tc.group)
		if err != nil || got != tc.want {
			t.Fatalf("%v: Persists = %v, %v; want %v", tc.group, got, err, tc.want)
		}
		if exec.Missed != 1 || exec.RunsUsed != tc.runs {
			t.Fatalf("%v: Missed = %d, RunsUsed = %d; want 1, %d", tc.group, exec.Missed, exec.RunsUsed, tc.runs)
		}
		if len(exec.quarantined) != 1 || !exec.isQuarantined(tc.group, crashSeed) {
			t.Fatalf("%v: quarantine = %v, want only seed %d", tc.group, exec.quarantined, crashSeed)
		}
		// The quarantined pair is skipped, not re-run, next time.
		if _, err := exec.Persists(context.Background(), tc.group); err != nil {
			t.Fatal(err)
		}
		if len(exec.quarantined) != 1 || exec.Missed != 2 || crashes != 1 {
			t.Fatalf("%v: re-query grew quarantine to %d, Missed %d, re-ran the pair %d times",
				tc.group, len(exec.quarantined), exec.Missed, crashes-1)
		}
	}
}

// TestPersistsAllReplaysQuarantined checks a group whose every replay
// crashes fails the query with Intervene's error.
func TestPersistsAllReplaysQuarantined(t *testing.T) {
	withReplayHook(t, func([]predicate.ID, int64) { panic("every replay crashes") })
	_, _, ref := executorFixture(t)
	_, want := ref.Intervene(context.Background(), stopGroup)
	_, _, exec := executorFixture(t)
	_, err := exec.Persists(context.Background(), stopGroup)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("Persists error %v, Intervene error %v; want the same error", err, want)
	}
	if got := len(exec.quarantined); got != len(exec.Seeds) || exec.Missed != len(exec.Seeds) {
		t.Fatalf("quarantine has %d entries, Missed %d; want %d", got, exec.Missed, len(exec.Seeds))
	}
}

// TestPersistsScopesFailureSignature checks a replay failing with
// another signature is a different bug, not a persistence.
func TestPersistsScopesFailureSignature(t *testing.T) {
	_, _, exec := executorFixture(t)
	exec.FailureSig = "unhandled:SomethingElse"
	got, err := exec.Persists(context.Background(), persistGroup)
	if err != nil || got {
		t.Fatalf("Persists = %v, %v; want false for a foreign signature", got, err)
	}
	exec.FailureSig = "unhandled:Corrupt"
	if got, err := exec.Persists(context.Background(), persistGroup); err != nil || !got {
		t.Fatalf("Persists = %v, %v; want true for the group's own signature", got, err)
	}
}

// TestPersistsCancelled checks a cancelled context stops the query
// with ctx's error before any replay.
func TestPersistsCancelled(t *testing.T) {
	_, _, exec := executorFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exec.Persists(ctx, persistGroup); err != ctx.Err() {
		t.Fatalf("Persists error = %v, want %v", err, ctx.Err())
	}
	if exec.RunsUsed != 0 {
		t.Fatalf("RunsUsed = %d after a cancelled query", exec.RunsUsed)
	}
}
