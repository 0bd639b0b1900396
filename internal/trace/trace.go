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

import "fmt"

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

// Call returns the span of the given method instance, or nil.
func (e *Execution) Call(method string, instance int) *MethodCall {
	for i := range e.Calls {
		if e.Calls[i].Method == method && e.Calls[i].Instance == instance {
			return &e.Calls[i]
		}
	}
	return nil
}

// Set is a corpus of executions of one application with one input —
// the raw material of statistical debugging.
type Set struct {
	Executions []Execution `json:"executions"`
}

// Successes returns the successful executions.
func (s *Set) Successes() []*Execution {
	var out []*Execution
	for i := range s.Executions {
		if !s.Executions[i].Failed() {
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
