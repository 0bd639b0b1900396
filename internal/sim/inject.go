package sim

import (
	"sort"

	"aid/internal/trace"
)

// MethodInjection alters the runtime behaviour of one method, realizing
// the intervention mechanisms of the paper's Fig. 2 without modifying
// program text (an LFI-style dynamic injector).
//
// Field combinations compose in entry order: WaitBefore, GlobalLocks,
// DelayStart, then the (possibly replaced) body; SignalAfter fires at
// completion regardless of how the body exits.
type MethodInjection struct {
	// GlobalLocks serialize every invocation of the method with any
	// other method injected with the same lock name — the intervention
	// for data races and atomicity violations ("put locks around the
	// code segments that access X"). Locks are acquired in sorted order
	// at entry, so simultaneous multi-lock injections cannot deadlock
	// against each other.
	GlobalLocks []string
	// DelayStart inserts a sleep at method entry — changes thread
	// timing/ordering ("insert delay").
	DelayStart trace.Time
	// DelayReturn inserts a sleep immediately before the method
	// completes — the intervention for "method runs too fast".
	DelayReturn trace.Time
	// ForceReturn short-circuits the body and returns the given value
	// immediately — the intervention for "method runs too slow"
	// ("prematurely return the correct value").
	ForceReturn *int64
	// ForceReturnVoid short-circuits a void method.
	ForceReturnVoid bool
	// OverrideReturn lets the body run but replaces its return value —
	// the intervention for "method returns incorrect value".
	OverrideReturn *int64
	// CatchExceptions absorbs any exception thrown by the body; the
	// span completes normally with CatchValue — the intervention for
	// "method M fails" ("put M in a try-catch block").
	CatchExceptions bool
	// CatchValue is the return value substituted when an exception is
	// absorbed.
	CatchValue int64
	// WaitBefore blocks the method at entry until each listed shared
	// variable equals its value — one half of order-enforcing
	// interventions. Multiple waits apply in list order.
	WaitBefore []Signal
	// SignalAfter sets each listed shared variable when the method
	// completes — the other half. The writes are injector-internal and
	// are not traced as program accesses.
	SignalAfter []Signal
}

// Signal names a shared variable and a value for order enforcement.
type Signal struct {
	Var string
	Val int64
}

// Plan maps method names to their injections for one intervened run.
type Plan map[string]MethodInjection

// Add composes inj into p's entry for method, in place. Injections on
// one method compose: locks, waits and signals accumulate, delays take
// the maximum, and inj's scalar overrides win. Adding never writes a
// slice the plan held before the call — an accumulated list is freshly
// allocated — so slices read out of p, or passed in with an earlier
// injection, stay as the caller saw them. Like any Plan, p must not
// change after it has been used in a run.
func (p Plan) Add(method string, inj MethodInjection) {
	base, ok := p[method]
	if !ok {
		p[method] = inj
		return
	}
	base.GlobalLocks = unionStrings(base.GlobalLocks, inj.GlobalLocks)
	if inj.DelayStart > base.DelayStart {
		base.DelayStart = inj.DelayStart
	}
	if inj.DelayReturn > base.DelayReturn {
		base.DelayReturn = inj.DelayReturn
	}
	if inj.ForceReturn != nil {
		base.ForceReturn = inj.ForceReturn
	}
	if inj.ForceReturnVoid {
		base.ForceReturnVoid = true
	}
	if inj.OverrideReturn != nil {
		base.OverrideReturn = inj.OverrideReturn
	}
	if inj.CatchExceptions {
		base.CatchExceptions = true
		base.CatchValue = inj.CatchValue
	}
	base.WaitBefore = unionSignals(base.WaitBefore, inj.WaitBefore)
	base.SignalAfter = unionSignals(base.SignalAfter, inj.SignalAfter)
	p[method] = base
}

// unionStrings returns a and b merged, deduplicated and sorted, in a
// fresh slice; with nothing to add it returns a itself. Neither input
// is written.
func unionStrings(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	out := make([]string, 0, len(a)+len(b))
	out = append(append(out, a...), b...)
	sort.Strings(out)
	u := out[:0]
	for _, s := range out {
		if len(u) == 0 || s != u[len(u)-1] {
			u = append(u, s)
		}
	}
	return u
}

// unionSignals returns a followed by the signals of b it lacks, in
// first-occurrence order (waits apply in list order), in a fresh slice;
// with nothing to add it returns a itself. Neither input is written.
// Lists are short (one or two order-enforcement signals), so the
// membership test is a linear scan.
func unionSignals(a, b []Signal) []Signal {
	if len(b) == 0 {
		return a
	}
	out := append(make([]Signal, 0, len(a)+len(b)), a...)
	for _, s := range b {
		found := false
		for _, d := range out {
			if d == s {
				found = true
				break
			}
		}
		if !found {
			out = append(out, s)
		}
	}
	return out
}

// Empty reports whether the injection alters nothing.
func (i MethodInjection) Empty() bool {
	return len(i.GlobalLocks) == 0 && i.DelayStart == 0 && i.DelayReturn == 0 &&
		i.ForceReturn == nil && !i.ForceReturnVoid && i.OverrideReturn == nil &&
		!i.CatchExceptions && len(i.WaitBefore) == 0 && len(i.SignalAfter) == 0
}
