package trace

import (
	"testing"
	"unsafe"
)

// TestLogSetBytes counts a small hand-built set's resident size: every
// backing array by capacity and every string by length.
func TestLogSetBytes(t *testing.T) {
	ls := &LogSet{
		Syms: Symbols{
			Funcs:      []string{"Get", "Set"},
			Objects:    []ObjectID{"x"},
			Exceptions: []string{"Timeout"},
			Mutexes:    []string{"mu"},
		},
		Runs: []LogRun{
			{ID: "s1", Seed: 1, Log: RunLog{
				Spans:    make([]Span, 2),
				Accesses: make([]SpanAccess, 3),
				LockIDs:  []int32{0},
				LockEnd:  []int32{1},
			}},
			{ID: "f2", Seed: 2, Outcome: Failure, FailureSig: "Timeout@Get",
				Log:      RunLog{Spans: make([]Span, 1)},
				Injected: []int32{0},
				kinds:    []kindAt{{0, AccessKind(2)}},
			},
		},
	}
	var (
		run    = int64(unsafe.Sizeof(LogRun{}))
		span   = int64(unsafe.Sizeof(Span{}))
		access = int64(unsafe.Sizeof(SpanAccess{}))
		str    = int64(unsafe.Sizeof(""))
		kind   = int64(unsafe.Sizeof(kindAt{}))
	)
	want := 2*run + // the runs
		5*str + // five symbol names' headers
		3 + 3 + 1 + 7 + 2 + // "Get", "Set", "x", "Timeout", "mu"
		2 + 2*span + 3*access + 4 + 4 + // "s1", its logs, one lock id, one lockset end
		2 + 11 + 1*span + 4 + 1*kind // "f2", "Timeout@Get", its span, one injected span, one kind
	if got := ls.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
	if got := (&LogSet{}).Bytes(); got != 0 {
		t.Fatalf("empty set: Bytes() = %d, want 0", got)
	}
}
