package predicate

// BenchSet is benchSet, for the benchmarks in package predicate_test.
var BenchSet = benchSet

// has reports whether the predicate occurred in the row.
func (l ExecLog) has(id ID) bool {
	_, ok := l.occ(id)
	return ok
}

// occ returns the predicate's occurrence window in the row.
func (l ExecLog) occ(id ID) (Occurrence, bool) {
	h, ok := l.c.byID[id]
	if !ok {
		return Occurrence{}, false
	}
	return l.c.OccAt(int(l.row), h)
}

// counts returns (#rows where id occurred, #failed rows where it
// occurred, #failed rows).
func (c *Corpus) counts(id ID) (occurred, occurredInFailed, failed int) {
	if h, ok := c.byID[id]; ok {
		occurred, occurredInFailed = c.CountsAt(h)
	}
	return occurred, occurredInFailed, c.nFail
}
