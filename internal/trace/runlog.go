package trace

import "slices"

// RunLog is a read-only view of one simulated run's logs, in the
// symbol-indexed form the simulator records them: what an Execution
// holds, before any name is resolved. Spans are in canonical order with
// canonical instance numbers (the order and numbering of the Execution
// assembled from the same run), and accesses are in time order, one per
// tick at most. Nothing in the logs is a pointer. A RunLog handed out by
// the simulator is valid only until the call that received it returns.
type RunLog struct {
	Spans    []Span
	Accesses []SpanAccess
	// Lockset i holds the mutex ids LockIDs[LockEnd[i-1]:LockEnd[i]]
	// (from 0 for i = 0). Mutex ids name Symbols.Mutexes; a replay under
	// a plan numbers the plan's own mutexes past the program's, so ids
	// are only comparable across runs of one plan.
	LockIDs []int32
	LockEnd []int32
}

// Span is one call span of a RunLog.
type Span struct {
	// Fn is the method's index in the program's Symbols.Funcs.
	Fn int32
	// Exc is the id of the exception kind the call completed with, -1
	// when it returned normally.
	Exc      int32
	Instance int
	Thread   ThreadID
	Start    Time
	End      Time
	Return   Value
}

// Failed reports whether the call completed with an exception.
func (s *Span) Failed() bool { return s.Exc >= 0 }

// SpanAccess is one shared-object access of a RunLog.
type SpanAccess struct {
	// Span indexes RunLog.Spans: the call that made the access.
	Span int32
	// Obj is the object's index in the program's Symbols.Objects.
	Obj int32
	// Lockset is the id of the held-mutex set, -1 when none was held.
	Lockset int32
	Kind    uint8 // an AccessKind
	At      Time
}

// Lockset returns lockset id's mutex ids (nil for -1).
func (l *RunLog) Lockset(id int32) []int32 {
	if id < 0 {
		return nil
	}
	var start int32
	if id > 0 {
		start = l.LockEnd[id-1]
	}
	return l.LockIDs[start:l.LockEnd[id]]
}

// Clone returns an owned copy of the logs. An empty log is nil in the
// copy, whether the machine that recorded it was fresh or reused, so
// two copies of one run are equal under reflect.DeepEqual.
func (l *RunLog) Clone() RunLog {
	return RunLog{
		Spans:    cloneOrNil(l.Spans),
		Accesses: cloneOrNil(l.Accesses),
		LockIDs:  cloneOrNil(l.LockIDs),
		LockEnd:  cloneOrNil(l.LockEnd),
	}
}

// cloneOrNil is slices.Clone with nil for an empty slice.
func cloneOrNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// Symbols names a program's symbol ids: Span.Fn indexes Funcs,
// SpanAccess.Obj indexes Objects, Span.Exc indexes Exceptions and the
// mutex ids of a lockset index Mutexes. Two ids may share an object name
// (a global and an array of one name are one object in an Execution).
type Symbols struct {
	Funcs      []string
	Objects    []ObjectID
	Exceptions []string
	Mutexes    []string
}
