package trace

import (
	"slices"
	"unsafe"
)

// LogSet is a corpus in log form: every run's header and owned RunLog,
// over one Symbols. Collection keeps the simulator's runs this way, and
// extraction and the replay monitors read them by id; a Set is the
// corpus's interchange form, and Intern and LogSet.Set convert between
// the two.
//
// Syms.Funcs are distinct and in name order, so comparing function ids
// compares method names. Objects may repeat a name (a global and an
// array of one name are one object). Mutex ids are comparable across
// the set's runs.
type LogSet struct {
	Syms Symbols
	Runs []LogRun
}

// LogRun is one run of a LogSet: an Execution's header and the run's
// logs.
type LogRun struct {
	ID         string
	Seed       int64
	Outcome    Outcome
	FailureSig string
	Log        RunLog
	// Injected lists, in order, the spans whose calls fault injection
	// altered (MethodCall.Injected); nil for an uninstrumented run.
	Injected []int32
	// kinds holds, by access index, the accesses of an interned file
	// whose kind is neither Read nor Write, which SpanAccess.Kind cannot
	// hold; their SpanAccess.Kind reads Read, as extraction reads them.
	kinds []kindAt
}

type kindAt struct {
	access int32
	kind   AccessKind
}

// Failed reports whether the run's outcome is Failure.
func (r *LogRun) Failed() bool { return r.Outcome == Failure }

// Counts returns (#successes, #failures).
func (s *LogSet) Counts() (succ, fail int) {
	for i := range s.Runs {
		if s.Runs[i].Failed() {
			fail++
		} else {
			succ++
		}
	}
	return succ, fail
}

// Bytes returns the resident size of the corpus in log form: the
// backing arrays of its runs, logs and symbol tables, by capacity, and
// the bytes of every run ID, failure signature and symbol name. Intern
// carves every run's logs from one array per kind, so a set it built
// counts each array once.
func (s *LogSet) Bytes() int64 {
	n := sliceBytes(s.Runs)
	for _, names := range [][]string{s.Syms.Funcs, s.Syms.Exceptions, s.Syms.Mutexes} {
		n += sliceBytes(names)
		for _, name := range names {
			n += int64(len(name))
		}
	}
	n += sliceBytes(s.Syms.Objects)
	for _, name := range s.Syms.Objects {
		n += int64(len(name))
	}
	for i := range s.Runs {
		r := &s.Runs[i]
		n += int64(len(r.ID) + len(r.FailureSig))
		n += sliceBytes(r.Log.Spans) + sliceBytes(r.Log.Accesses)
		n += sliceBytes(r.Log.LockIDs) + sliceBytes(r.Log.LockEnd)
		n += sliceBytes(r.Injected) + sliceBytes(r.kinds)
	}
	return n
}

// sliceBytes returns the size of s's backing array.
func sliceBytes[E any](s []E) int64 {
	var e E
	return int64(cap(s)) * int64(unsafe.Sizeof(e))
}

// Successes returns the successful runs, in order, as a LogSet over the
// same symbols; the logs are shared, not copied.
func (s *LogSet) Successes() *LogSet {
	succ, _ := s.Counts()
	out := &LogSet{Syms: s.Syms, Runs: make([]LogRun, 0, succ)}
	for i := range s.Runs {
		if !s.Runs[i].Failed() {
			out.Runs = append(out.Runs, s.Runs[i])
		}
	}
	return out
}

// Set materializes the corpus as a Set, run by run (LogRun.Execution).
func (s *LogSet) Set() *Set {
	out := &Set{Executions: make([]Execution, len(s.Runs))}
	for i := range s.Runs {
		out.Executions[i] = s.Runs[i].Execution(&s.Syms)
	}
	return out
}

// Execution assembles run r's Execution, naming its ids from syms: it is
// the one place an Execution is built from a run. The calls are the
// spans in log order. Each call's accesses are its span's, in log order,
// carved from one exact-size arena, and each lockset's mutex names are
// carved from one arena and shared by the accesses that held it.
func (r *LogRun) Execution(syms *Symbols) Execution {
	e := Execution{ID: r.ID, Seed: r.Seed, Outcome: r.Outcome, FailureSig: r.FailureSig}
	l := &r.Log
	if l.Spans == nil {
		return e
	}
	var locks []string
	if len(l.LockIDs) > 0 {
		locks = make([]string, len(l.LockIDs))
		for i, mu := range l.LockIDs {
			locks[i] = syms.Mutexes[mu]
		}
	}
	// end[j] is where span j's accesses end in the arena once they are
	// placed: counted and summed to starts, then advanced as a cursor.
	n := len(l.Spans)
	var buf [64]int32
	end := buf[:0]
	if n+1 > len(buf) {
		end = make([]int32, n+1)
	} else {
		end = buf[:n+1]
	}
	var arena []Access
	if len(l.Accesses) > 0 {
		for i := range l.Accesses {
			end[l.Accesses[i].Span+1]++
		}
		for j := 1; j < n; j++ {
			end[j] += end[j-1]
		}
		arena = make([]Access, len(l.Accesses))
		kinds := r.kinds
		// Fields are set one by one on the zeroed arena: a composite
		// literal would be copied in whole, under a bulk write barrier.
		for i := range l.Accesses {
			a := &l.Accesses[i]
			acc := &arena[end[a.Span]]
			end[a.Span]++
			acc.Object = syms.Objects[a.Obj]
			acc.Kind = AccessKind(a.Kind)
			if len(kinds) > 0 && kinds[0].access == int32(i) {
				acc.Kind, kinds = kinds[0].kind, kinds[1:]
			}
			acc.At = a.At
			if a.Lockset >= 0 {
				var lo int32
				if a.Lockset > 0 {
					lo = l.LockEnd[a.Lockset-1]
				}
				hi := l.LockEnd[a.Lockset]
				acc.Locks = locks[lo:hi:hi]
			}
		}
	}
	calls := make([]MethodCall, n)
	var start int32
	for j := range calls {
		s := &l.Spans[j]
		c := &calls[j]
		c.Method = syms.Funcs[s.Fn]
		c.Instance = s.Instance
		c.Thread = s.Thread
		c.Start, c.End = s.Start, s.End
		c.Return = s.Return
		if s.Exc >= 0 {
			c.Exception = syms.Exceptions[s.Exc]
		}
		if hi := end[j]; hi > start {
			c.Accesses = arena[start:hi:hi]
			start = hi
		}
	}
	for _, j := range r.Injected {
		calls[j].Injected = true
	}
	e.Calls = calls
	return e
}

// Intern converts a Set into log form, with a one-to-one round trip:
// LogSet.Set encodes byte-identically to s. Calls keep their file order
// and their instance numbers as given, each call's accesses follow the
// previous call's in order, and each access's locks form a lockset of
// their own. Funcs are the set's method names in name order; objects,
// exception kinds and mutexes are numbered as first seen. Every table is
// sized by what the set holds, none by a number a trace supplies. A
// name costs one map probe where it occurs, or none when it repeats the
// previous call's method or the previous access's object.
func Intern(s *Set) *LogSet {
	var nSpans, nAccs, nLockIDs, nLocksets int
	for i := range s.Executions {
		e := &s.Executions[i]
		nSpans += len(e.Calls)
		for j := range e.Calls {
			c := &e.Calls[j]
			nAccs += len(c.Accesses)
			for k := range c.Accesses {
				if n := len(c.Accesses[k].Locks); n > 0 {
					nLockIDs += n
					nLocksets++
				}
			}
		}
	}
	ls := &LogSet{Runs: make([]LogRun, len(s.Executions))}
	fnIdx := make(map[string]int32)
	objIdx := make(map[ObjectID]int32)
	excIdx := make(map[string]int32)
	muIdx := make(map[string]int32)
	spans := make([]Span, nSpans)
	accs := make([]SpanAccess, nAccs)
	lockIDs := make([]int32, nLockIDs)
	lockEnd := make([]int32, nLocksets)
	// Methods are numbered as first seen here and renumbered in name
	// order below.
	var fns []string
	var lastFn string
	var lastObj ObjectID
	fn, obj := int32(-1), int32(-1)
	var f, a, li, le int
	for i := range s.Executions {
		e := &s.Executions[i]
		r := &ls.Runs[i]
		r.ID, r.Seed, r.Outcome, r.FailureSig = e.ID, e.Seed, e.Outcome, e.FailureSig
		f0, a0, li0, le0 := f, a, li, le
		for j := range e.Calls {
			c := &e.Calls[j]
			sp := &spans[f]
			f++
			if fn < 0 || c.Method != lastFn {
				fn, lastFn = internName(fnIdx, &fns, c.Method), c.Method
			}
			sp.Fn = fn
			sp.Exc = -1
			if c.Exception != "" {
				sp.Exc = internName(excIdx, &ls.Syms.Exceptions, c.Exception)
			}
			sp.Instance, sp.Thread = c.Instance, c.Thread
			sp.Start, sp.End, sp.Return = c.Start, c.End, c.Return
			if c.Injected {
				r.Injected = append(r.Injected, int32(j))
			}
			for k := range c.Accesses {
				acc := &c.Accesses[k]
				sa := &accs[a]
				sa.Span = int32(j)
				if obj < 0 || acc.Object != lastObj {
					obj, lastObj = internName(objIdx, &ls.Syms.Objects, acc.Object), acc.Object
				}
				sa.Obj = obj
				sa.Lockset = -1
				sa.At = acc.At
				switch acc.Kind {
				case Read:
				case Write:
					sa.Kind = uint8(Write)
				default:
					r.kinds = append(r.kinds, kindAt{int32(a - a0), acc.Kind})
				}
				if len(acc.Locks) > 0 {
					for _, mu := range acc.Locks {
						lockIDs[li] = internName(muIdx, &ls.Syms.Mutexes, mu)
						li++
					}
					lockEnd[le] = int32(li - li0)
					sa.Lockset = int32(le - le0)
					le++
				}
				a++
			}
		}
		if e.Calls != nil {
			r.Log.Spans = spans[f0:f:f]
		}
		r.Log.Accesses = accs[a0:a:a]
		r.Log.LockIDs = lockIDs[li0:li:li]
		r.Log.LockEnd = lockEnd[le0:le:le]
	}
	// Name order: rank[id] is first-seen method id's place among the
	// sorted names.
	ls.Syms.Funcs = slices.Clone(fns)
	slices.Sort(ls.Syms.Funcs)
	rank := make([]int32, len(fns))
	for id, m := range fns {
		r, _ := slices.BinarySearch(ls.Syms.Funcs, m)
		rank[id] = int32(r)
	}
	for k := range spans {
		spans[k].Fn = rank[spans[k].Fn]
	}
	return ls
}

// internName returns k's id in idx, giving it the next one, and
// appending it to names, when it is new.
func internName[K comparable](idx map[K]int32, names *[]K, k K) int32 {
	id, ok := idx[k]
	if !ok {
		id = int32(len(*names))
		idx[k] = id
		*names = append(*names, k)
	}
	return id
}
