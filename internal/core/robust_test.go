package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"aid/internal/predicate"
)

// obsFail and obsClean build one-run observation slices for scripted
// interveners.
func obsFail(ids ...predicate.ID) []Observation {
	return []Observation{{Failed: true, Observed: PredSetOf(ids...)}}
}

func obsClean(ids ...predicate.ID) []Observation {
	return []Observation{{Observed: PredSetOf(ids...)}}
}

// scriptedIntervener replays a fixed per-call script; past the end it
// repeats the last entry.
type scriptedIntervener struct {
	script []func() ([]Observation, error)
	calls  int
}

func (s *scriptedIntervener) Intervene(context.Context, []predicate.ID) ([]Observation, error) {
	i := s.calls
	if i >= len(s.script) {
		i = len(s.script) - 1
	}
	s.calls++
	return s.script[i]()
}

func ret(obs []Observation) func() ([]Observation, error) {
	return func() ([]Observation, error) { return obs, nil }
}

func fail(err error) func() ([]Observation, error) {
	return func() ([]Observation, error) { return nil, err }
}

// TestRobustOneFailingRunDecides pins the paper's single-counter-example
// rule in the default (FlipCeiling == 0) mode: the first failing trial
// decides "persisted" with confidence 1 after exactly one trial.
func TestRobustOneFailingRunDecides(t *testing.T) {
	inner := &scriptedIntervener{script: []func() ([]Observation, error){ret(obsFail("P1"))}}
	r := NewRobustIntervener(inner, RobustConfig{})
	obs, err := r.Intervene(context.Background(), []predicate.ID{"P2"})
	if err != nil {
		t.Fatal(err)
	}
	if !anyFailed(obs) {
		t.Fatal("verdict must be persisted")
	}
	info := r.LastInfo()
	if info.Trials != 1 || info.Confidence != 1 {
		t.Fatalf("info = %+v, want 1 trial at confidence 1", info)
	}
}

// TestRobustCleanRunsAccumulateToBound checks the "stopped" verdict
// needs enough failure-free trials: with ManifestFloor 0.5 and
// Confidence 0.99, (1-0.5)^n <= 0.01 first holds at n = 7.
func TestRobustCleanRunsAccumulateToBound(t *testing.T) {
	inner := &scriptedIntervener{script: []func() ([]Observation, error){ret(obsClean())}}
	r := NewRobustIntervener(inner, RobustConfig{})
	obs, err := r.Intervene(context.Background(), []predicate.ID{"P1"})
	if err != nil {
		t.Fatal(err)
	}
	if anyFailed(obs) {
		t.Fatal("verdict must be stopped")
	}
	info := r.LastInfo()
	if info.Trials != 7 {
		t.Fatalf("stopped after %d trials, want 7", info.Trials)
	}
	if info.Confidence < 0.99 {
		t.Fatalf("confidence %v below the bound", info.Confidence)
	}
	for _, o := range obs {
		if o.Confidence != info.Confidence {
			t.Fatalf("observation confidence %v != round confidence %v", o.Confidence, info.Confidence)
		}
	}
}

// TestRobustMissedManifestationsDiscarded checks a late failing trial
// flips the verdict to persisted and the earlier missed-manifestation
// runs (clean, but with observations) are discarded as
// verdict-inconsistent.
func TestRobustMissedManifestationsDiscarded(t *testing.T) {
	inner := &scriptedIntervener{script: []func() ([]Observation, error){
		ret(obsClean("P1")),
		ret(obsClean("P1")),
		ret(obsFail("P1", "P2")),
	}}
	r := NewRobustIntervener(inner, RobustConfig{})
	obs, err := r.Intervene(context.Background(), []predicate.ID{"P3"})
	if err != nil {
		t.Fatal(err)
	}
	if !anyFailed(obs) {
		t.Fatal("verdict must be persisted")
	}
	for _, o := range obs {
		if !o.Failed {
			t.Fatalf("clean run with observations leaked through: %+v", o)
		}
	}
	info := r.LastInfo()
	if info.Trials != 3 || info.Suspect != 2 {
		t.Fatalf("info = %+v, want 3 trials with 2 suspect runs", info)
	}
	if r.Stats().Suspect != 2 {
		t.Fatalf("stats suspect = %d, want 2", r.Stats().Suspect)
	}
}

// TestRobustSPRTForgedFailureOutvoted checks the SPRT mode (FlipCeiling
// > 0): a forged failing run among consistent clean runs is outvoted
// and dropped, where the default mode would have declared "persisted"
// on it alone.
func TestRobustSPRTForgedFailureOutvoted(t *testing.T) {
	inner := &scriptedIntervener{script: []func() ([]Observation, error){
		ret(obsFail()), // flipped clean run: failing, observed nothing
		ret(obsClean()),
	}}
	r := NewRobustIntervener(inner, RobustConfig{
		ManifestFloor: 0.8,
		FlipCeiling:   0.2,
		MaxTrials:     50,
	})
	obs, err := r.Intervene(context.Background(), []predicate.ID{"P1"})
	if err != nil {
		t.Fatal(err)
	}
	if anyFailed(obs) {
		t.Fatal("one forged failure must not decide the round under SPRT")
	}
	if info := r.LastInfo(); info.Trials < 3 {
		t.Fatalf("SPRT decided after %d trials; the forged run should cost extra evidence", info.Trials)
	}
}

// TestRobustRetriesTransientErrors checks transient errors and panics
// are retried with backoff and accounted, and the trial still succeeds.
func TestRobustRetriesTransientErrors(t *testing.T) {
	inner := &scriptedIntervener{script: []func() ([]Observation, error){
		fail(errors.New("transient")),
		func() ([]Observation, error) { panic("flaky runner") },
		ret(obsFail("P1")),
	}}
	r := NewRobustIntervener(inner, RobustConfig{
		BackoffBase: time.Microsecond,
		BackoffMax:  10 * time.Microsecond,
	})
	obs, err := r.Intervene(context.Background(), []predicate.ID{"P1"})
	if err != nil {
		t.Fatal(err)
	}
	if !anyFailed(obs) {
		t.Fatal("verdict must be persisted once the trial finally runs")
	}
	st := r.Stats()
	if st.Retries != 2 || st.Recovered != 1 {
		t.Fatalf("stats = %+v, want 2 retries with 1 recovered panic", st)
	}
}

// TestRobustRetryLimitExhausted checks a persistently failing intervener
// surfaces an error instead of spinning forever.
func TestRobustRetryLimitExhausted(t *testing.T) {
	boom := errors.New("boom")
	inner := &scriptedIntervener{script: []func() ([]Observation, error){fail(boom)}}
	r := NewRobustIntervener(inner, RobustConfig{
		RetryLimit:  2,
		BackoffBase: time.Microsecond,
		BackoffMax:  10 * time.Microsecond,
	})
	_, err := r.Intervene(context.Background(), []predicate.ID{"P1"})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped %v", err, boom)
	}
	if inner.calls != 3 {
		t.Fatalf("intervener called %d times, want 1 + 2 retries", inner.calls)
	}
}

// TestRobustCancelDuringBackoff checks cancellation interrupts a
// backoff sleep promptly — the retry loop must not hold the round
// hostage for the full backoff — and leaks no goroutine.
func TestRobustCancelDuringBackoff(t *testing.T) {
	inner := &scriptedIntervener{script: []func() ([]Observation, error){fail(errors.New("transient"))}}
	r := NewRobustIntervener(inner, RobustConfig{
		RetryLimit:  5,
		BackoffBase: time.Hour, // without prompt cancellation the test times out
		BackoffMax:  time.Hour,
	})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.Intervene(ctx, []predicate.ID{"P1"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep did not yield", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestRobustPreCancelled checks an already-cancelled context performs
// no trials at all.
func TestRobustPreCancelled(t *testing.T) {
	inner := &scriptedIntervener{script: []func() ([]Observation, error){ret(obsFail("P1"))}}
	r := NewRobustIntervener(inner, RobustConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Intervene(ctx, []predicate.ID{"P1"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if inner.calls != 0 {
		t.Fatalf("intervener called %d times under a cancelled context", inner.calls)
	}
}

// TestRobustEscalationScalesBudget checks escalated retests widen both
// the trial cap and the confidence demand: the same all-clean stream
// needs more trials at escalation 1 than at 0.
func TestRobustEscalationScalesBudget(t *testing.T) {
	inner := &scriptedIntervener{script: []func() ([]Observation, error){ret(obsClean())}}
	r := NewRobustIntervener(inner, RobustConfig{})
	if _, err := r.Intervene(context.Background(), []predicate.ID{"P1"}); err != nil {
		t.Fatal(err)
	}
	base := r.LastInfo().Trials
	if _, err := r.InterveneEscalated(context.Background(), []predicate.ID{"P1"}, 1); err != nil {
		t.Fatal(err)
	}
	esc := r.LastInfo()
	if esc.Escalation != 1 {
		t.Fatalf("escalation not recorded: %+v", esc)
	}
	if esc.Trials <= base {
		t.Fatalf("escalated round used %d trials, base used %d; escalation must demand more evidence", esc.Trials, base)
	}
}
