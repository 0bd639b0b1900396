// Package trace models execution traces of concurrent applications.
//
// AID (Adaptive Interventional Debugging) separates instrumentation from
// predicate extraction: an instrumented application emits a trace per
// execution — every executed method's start and end time, its thread, the
// shared objects it accesses (with access kind and the lock set held),
// its return value, and whether it threw an exception. Predicates are
// evaluated offline against these traces (see package predicate).
//
// Times are logical ticks of the global scheduler clock (package sim),
// which plays the role of the paper's computer clock.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ThreadID identifies a simulated thread within one execution.
type ThreadID int

// ObjectID names a shared object (variable, array, resource) that method
// bodies read or write.
type ObjectID string

// Time is a logical timestamp: a tick of the global scheduler clock.
type Time int64

// AccessKind distinguishes reads from writes to shared objects.
type AccessKind int

const (
	// Read is a load from a shared object.
	Read AccessKind = iota
	// Write is a store to a shared object.
	Write
)

// String returns "read" or "write".
func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Access records one touch of a shared object by a method body.
type Access struct {
	Object ObjectID   `json:"object"`
	Kind   AccessKind `json:"kind"`
	At     Time       `json:"at"`
	// Locks is the set of mutexes held by the accessing thread at the
	// moment of the access, used by the data-race extractor to rule out
	// lock-protected pairs.
	Locks []string `json:"locks,omitempty"`
}

// Value is a method return value. Only integer-valued methods appear in
// the simulated workloads; Void marks methods with no return value.
type Value struct {
	Void bool  `json:"void,omitempty"`
	Int  int64 `json:"int"`
}

// VoidValue is the return value of methods that return nothing.
func VoidValue() Value { return Value{Void: true} }

// IntValue wraps an integer return value.
func IntValue(v int64) Value { return Value{Int: v} }

// Equal reports whether two return values are identical.
func (v Value) Equal(o Value) bool { return v.Void == o.Void && v.Int == o.Int }

// String formats the value for logs and error messages.
func (v Value) String() string {
	if v.Void {
		return "void"
	}
	return fmt.Sprintf("%d", v.Int)
}

// MethodCall is one dynamic method invocation: a span on one thread.
type MethodCall struct {
	// Method is the static method name.
	Method string `json:"method"`
	// Instance is the 0-based index of this dynamic invocation among all
	// invocations of Method in the same execution, in start-time order.
	// Multiple executions of the same statement (loops, recursion,
	// repeated calls) map to separate predicate instances through it.
	Instance int      `json:"instance"`
	Thread   ThreadID `json:"thread"`
	Start    Time     `json:"start"`
	End      Time     `json:"end"`
	Accesses []Access `json:"accesses,omitempty"`
	Return   Value    `json:"return"`
	// Exception is the kind of the exception the call completed with
	// ("" when the call returned normally). An exception that a caller
	// does not catch propagates and re-appears on the caller's span.
	Exception string `json:"exception,omitempty"`
	// Injected marks spans whose behaviour was altered by fault
	// injection; predicate extraction treats them normally, but the flag
	// is useful in debugging the debugger.
	Injected bool `json:"injected,omitempty"`
}

// Duration is the span length in ticks.
func (c *MethodCall) Duration() Time { return c.End - c.Start }

// Failed reports whether the call completed with an exception.
func (c *MethodCall) Failed() bool { return c.Exception != "" }

// Overlaps reports whether the spans of c and o intersect in time.
// Touching endpoints (c ends exactly when o starts) do not overlap.
func (c *MethodCall) Overlaps(o *MethodCall) bool {
	return c.Start < o.End && o.Start < c.End
}

// Outcome labels an execution as successful or failed.
type Outcome int

const (
	// Success marks an execution that completed without failure.
	Success Outcome = iota
	// Failure marks an execution that crashed, asserted, or corrupted data.
	Failure
)

// String returns "success" or "failure".
func (o Outcome) String() string {
	if o == Failure {
		return "failure"
	}
	return "success"
}

// Execution is one complete run of the application: an outcome plus the
// method-call spans observed during the run.
type Execution struct {
	// ID identifies the run (typically derived from the scheduler seed).
	ID string `json:"id"`
	// Seed is the scheduler seed that produced the run.
	Seed int64 `json:"seed"`
	// Outcome labels the run.
	Outcome Outcome `json:"outcome"`
	// FailureSig groups failures by root cause: the paper assumes one
	// root cause per failure signature (stack-trace metadata collected
	// by failure trackers). It is empty for successful runs.
	FailureSig string `json:"failureSig,omitempty"`
	// Calls are the method spans, sorted by start time.
	Calls []MethodCall `json:"calls"`
}

// Failed reports whether the execution's outcome is Failure.
func (e *Execution) Failed() bool { return e.Outcome == Failure }

// compareCallsByStart is the canonical span order. The generic stable
// sort boxes nothing (sort.Stable's interface conversion escapes;
// sort.SliceStable adds a reflect-based swapper).
func compareCallsByStart(a, b MethodCall) int {
	switch {
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	case a.Thread != b.Thread:
		return cmp.Compare(a.Thread, b.Thread)
	default:
		return strings.Compare(a.Method, b.Method)
	}
}

// SortCalls orders spans by start time, breaking ties by thread then
// method name so traces are canonical and diffable.
func (e *Execution) SortCalls() {
	slices.SortStableFunc(e.Calls, compareCallsByStart)
}

// Canonicalize puts the execution in canonical form: spans sorted and
// instance numbers assigned, so canonical traces are comparable
// byte-for-byte. Set.Add and the sim interpreter funnel through it; the
// compiled sim engine records spans in this order and numbers them as
// it runs, and the engine equivalence tests hold it to this definition.
func (e *Execution) Canonicalize() {
	e.SortCalls()
	e.NumberInstances()
}

// NumberInstances assigns Instance indices to calls: the k-th start of a
// method within the execution gets instance k. Calls must be sorted.
func (e *Execution) NumberInstances() {
	// A linear-scan counter over a stack array instead of a map:
	// programs have a handful of distinct methods, and the array only
	// spills to the heap past 32 of them.
	type methodCount struct {
		method string
		next   int
	}
	var scratch [32]methodCount
	seen := scratch[:0]
outer:
	for i := range e.Calls {
		m := e.Calls[i].Method
		for j := range seen {
			if seen[j].method == m {
				e.Calls[i].Instance = seen[j].next
				seen[j].next++
				continue outer
			}
		}
		e.Calls[i].Instance = 0
		seen = append(seen, methodCount{m, 1})
	}
}

// CallsOf returns all spans of the named method in start order.
func (e *Execution) CallsOf(method string) []*MethodCall {
	var out []*MethodCall
	for i := range e.Calls {
		if e.Calls[i].Method == method {
			out = append(out, &e.Calls[i])
		}
	}
	return out
}

// Call returns the span of the given method instance, or nil.
func (e *Execution) Call(method string, instance int) *MethodCall {
	for i := range e.Calls {
		if e.Calls[i].Method == method && e.Calls[i].Instance == instance {
			return &e.Calls[i]
		}
	}
	return nil
}

// Methods returns the set of method names appearing in the execution,
// sorted for determinism.
func (e *Execution) Methods() []string {
	set := make(map[string]bool)
	for i := range e.Calls {
		set[e.Calls[i].Method] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Set is a corpus of executions of one application with one input —
// the raw material of statistical debugging.
type Set struct {
	Executions []Execution `json:"executions"`
}

// Add appends an execution, canonicalizing its call order and instance
// numbering.
func (s *Set) Add(e Execution) {
	e.Canonicalize()
	s.Executions = append(s.Executions, e)
}

// Reset clears the corpus for reuse, keeping the Executions capacity
// (arena hook, like Execution.Reset).
func (s *Set) Reset() { s.Executions = s.Executions[:0] }

// Successes returns the successful executions.
func (s *Set) Successes() []*Execution { return s.byOutcome(Success) }

// Failures returns the failed executions.
func (s *Set) Failures() []*Execution { return s.byOutcome(Failure) }

func (s *Set) byOutcome(o Outcome) []*Execution {
	var out []*Execution
	for i := range s.Executions {
		if s.Executions[i].Outcome == o {
			out = append(out, &s.Executions[i])
		}
	}
	return out
}

// Counts returns (#successes, #failures).
func (s *Set) Counts() (succ, fail int) {
	for i := range s.Executions {
		if s.Executions[i].Failed() {
			fail++
		} else {
			succ++
		}
	}
	return succ, fail
}

// FilterSignature keeps failures matching sig (and all successes),
// implementing the paper's grouping of failures by failure signature so
// each group has a single root cause.
func (s *Set) FilterSignature(sig string) *Set {
	out := &Set{}
	for i := range s.Executions {
		e := s.Executions[i]
		if !e.Failed() || e.FailureSig == sig {
			out.Executions = append(out.Executions, e)
		}
	}
	return out
}

// Signatures returns the distinct failure signatures present, sorted.
func (s *Set) Signatures() []string {
	set := make(map[string]bool)
	for i := range s.Executions {
		if s.Executions[i].Failed() {
			set[s.Executions[i].FailureSig] = true
		}
	}
	out := make([]string, 0, len(set))
	for sig := range set {
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}
