// Package canon defines the canonical form of a trace.Execution: spans
// sorted by start time, then thread, then method name, and each
// method's spans numbered in that order. The compiled simulator emits
// its spans in this order and numbers them as it runs, so no product
// path sorts a trace; the interpreter oracle and the tests that build
// executions by hand canonicalize here, and the engine equivalence
// tests hold the machine to this definition. Only tests import it.
package canon

import (
	"cmp"
	"slices"
	"strings"

	"aid/internal/trace"
)

// Add appends e to s in canonical form.
func Add(s *trace.Set, e trace.Execution) {
	Canonicalize(&e)
	s.Executions = append(s.Executions, e)
}

// Canonicalize puts e in canonical form, so canonical traces compare
// byte for byte.
func Canonicalize(e *trace.Execution) {
	sortCalls(e.Calls)
	numberInstances(e.Calls)
}

// sortCalls orders spans by start time, breaking ties by thread then
// method name; the sort is stable.
func sortCalls(calls []trace.MethodCall) {
	slices.SortStableFunc(calls, func(a, b trace.MethodCall) int {
		switch {
		case a.Start != b.Start:
			return cmp.Compare(a.Start, b.Start)
		case a.Thread != b.Thread:
			return cmp.Compare(a.Thread, b.Thread)
		default:
			return strings.Compare(a.Method, b.Method)
		}
	})
}

// numberInstances gives the k-th span of a method, in the order of
// calls, instance k.
func numberInstances(calls []trace.MethodCall) {
	next := map[string]int{}
	for i := range calls {
		calls[i].Instance = next[calls[i].Method]
		next[calls[i].Method]++
	}
}
