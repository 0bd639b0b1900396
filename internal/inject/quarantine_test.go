package inject

import (
	"context"
	"fmt"
	"testing"

	"aid/internal/predicate"
)

// withReplayHook installs a test replay hook for the test's duration.
func withReplayHook(t *testing.T, h func(group []predicate.ID, seed int64)) {
	t.Helper()
	replayHook = h
	t.Cleanup(func() { replayHook = nil })
}

// TestExecutorQuarantinesCrashingReplay checks a replay panic is
// contained as a quarantined (group, seed) pair and a missed run, while
// the surviving seeds still produce the group's observations.
func TestExecutorQuarantinesCrashingReplay(t *testing.T) {
	_, _, exec := executorFixture(t)
	crashSeed := exec.Seeds[1]
	crashes := 0
	withReplayHook(t, func(group []predicate.ID, seed int64) {
		if seed == crashSeed {
			crashes++
			panic(fmt.Sprintf("injected crash at seed %d", seed))
		}
	})

	group := []predicate.ID{"ret:Check#0"}
	obs, err := exec.Intervene(context.Background(), group)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != len(exec.Seeds)-1 {
		t.Fatalf("got %d observations, want %d (one seed quarantined)", len(obs), len(exec.Seeds)-1)
	}
	for _, o := range obs {
		if o.Failed {
			t.Fatal("surviving replays must still show the stopped failure")
		}
	}
	if exec.Missed != 1 {
		t.Fatalf("Missed = %d, want 1", exec.Missed)
	}
	if len(exec.quarantined) != 1 || !exec.isQuarantined(group, crashSeed) {
		t.Fatalf("quarantine = %v, want only the pair (%v, %d)", exec.quarantined, group, crashSeed)
	}

	// A second intervention on the same group skips the quarantined pair
	// without re-running it (the hook would panic again).
	if _, err := exec.Intervene(context.Background(), group); err != nil {
		t.Fatal(err)
	}
	if len(exec.quarantined) != 1 || crashes != 1 {
		t.Fatalf("re-intervention grew the quarantine to %d pairs and re-ran the pair %d times", len(exec.quarantined), crashes-1)
	}
	if exec.Missed != 2 {
		t.Fatalf("Missed = %d after second intervention, want 2", exec.Missed)
	}
}

// TestExecutorAllReplaysQuarantined checks a group whose every replay
// crashes yields an error — no evidence can be observed and retrying
// cannot produce any — instead of a fabricated outcome.
func TestExecutorAllReplaysQuarantined(t *testing.T) {
	_, _, exec := executorFixture(t)
	withReplayHook(t, func(group []predicate.ID, seed int64) {
		panic("every replay crashes")
	})
	if _, err := exec.Intervene(context.Background(), []predicate.ID{"ret:Check#0"}); err == nil {
		t.Fatal("want error when every replay of the group is quarantined")
	}
	if got, want := len(exec.quarantined), len(exec.Seeds); got != want {
		t.Fatalf("quarantine has %d entries, want %d", got, want)
	}
}

// TestExecutorQuarantineIsPerGroup checks quarantine keys include the
// forced group: a seed crashing under one plan stays available to other
// plans.
func TestExecutorQuarantineIsPerGroup(t *testing.T) {
	_, _, exec := executorFixture(t)
	crashSeed := exec.Seeds[0]
	withReplayHook(t, func(group []predicate.ID, seed int64) {
		if seed == crashSeed && len(group) == 1 && group[0] == "ret:Check#0" {
			panic("crash only under the Check plan")
		}
	})
	if _, err := exec.Intervene(context.Background(), []predicate.ID{"ret:Check#0"}); err != nil {
		t.Fatal(err)
	}
	obs, err := exec.Intervene(context.Background(), []predicate.ID{"slow:Slow#0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != len(exec.Seeds) {
		t.Fatalf("other group lost replays: got %d observations, want %d", len(obs), len(exec.Seeds))
	}
	if got := len(exec.quarantined); got != 1 {
		t.Fatalf("quarantine has %d entries, want 1", got)
	}
}
