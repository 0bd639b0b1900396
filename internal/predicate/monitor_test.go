package predicate

import (
	"slices"
	"testing"

	"aid/internal/trace"
)

// referenceBits is the monitors' oracle: bits[r][i] is whether c's i-th
// predicate occurs in replays[r]'s row of one-shot extraction over
// baselines ++ replays (marked failed), with c's compounds materialized
// in corpus order.
func referenceBits(c *Corpus, baselines, replays []trace.Execution, cfg Config) [][]bool {
	set := &trace.Set{Executions: append(append([]trace.Execution(nil), baselines...), replays...)}
	for i := len(baselines); i < len(set.Executions); i++ {
		set.Executions[i].Outcome = trace.Failure
	}
	ref := Extract(set, cfg)
	for _, p := range c.Preds {
		if p.Kind == KindCompound {
			ref.MaterializeCompound(p)
		}
	}
	bits := make([][]bool, len(replays))
	for r := range replays {
		for _, p := range c.Preds {
			bits[r] = append(bits[r], ref.Log(len(baselines)+r).has(p.ID))
		}
	}
	return bits
}

// compileOn interns baselines and replays into one log corpus, compiles
// c's monitors against the baselines' logs, and returns them with the
// replays' logs, in the ids the monitors read.
func compileOn(t testing.TB, c *Corpus, baselines, replays []trace.Execution, cfg Config) (*Monitors, []trace.RunLog) {
	t.Helper()
	ls := trace.Intern(&trace.Set{Executions: slices.Concat(baselines, replays)})
	ms, err := CompileMonitors(c, ls.Syms, &trace.LogSet{Syms: ls.Syms, Runs: ls.Runs[:len(baselines)]}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]trace.RunLog, len(replays))
	for r := range replays {
		logs[r] = ls.Runs[len(baselines)+r].Log
	}
	return ms, logs
}

// evalLog returns a copy of the monitors' occurrence bits for one log.
func evalLog(ms *Monitors, l *trace.RunLog) []bool {
	var out []bool
	ms.EvalLog(l, func(hit []bool) { out = slices.Clone(hit) })
	return out
}

// evalMatches compiles c's monitors against baselines, requires every
// replay's bits to equal the reference, and returns whether id occurred
// in each replay.
func evalMatches(t *testing.T, c *Corpus, baselines, replays []trace.Execution, id ID) []bool {
	t.Helper()
	cfg := Config{DurationMargin: 4}
	ms, logs := compileOn(t, c, baselines, replays, cfg)
	h, ok := c.HandleOf(id)
	if !ok {
		t.Fatalf("corpus lacks %s; have %v", id, c.IDs())
	}
	want := referenceBits(c, baselines, replays, cfg)
	var out []bool
	for r := range replays {
		got := evalLog(ms, &logs[r])
		for i, p := range c.Preds {
			if got[i] != want[r][i] {
				t.Fatalf("replay %d: %s monitor says %v, reference %v", r, p.ID, got[i], want[r][i])
			}
		}
		out = append(out, got[h])
	}
	return out
}

func withAccess(c trace.MethodCall, accs ...trace.Access) trace.MethodCall {
	c.Accesses = accs
	return c
}

// TestMonitorsOrderBaselineFacts checks that an order violation occurs
// in a flipped replay only while the monitors' baselines keep the pair
// present, leaf, ordered and conflicting in every baseline.
func TestMonitorsOrderBaselineFacts(t *testing.T) {
	corpus := Extract(buildSet(
		orderExec("s1", trace.Success, false), orderExec("s2", trace.Success, false),
		orderExec("f", trace.Failure, true),
	), Config{DurationMargin: 4})
	const id = ID("order:First#0<Second#0")
	ordered := buildSet(orderExec("s", trace.Success, false)).Executions[0]
	// Replays: flipped, and Second starting just as First ends (no flip).
	touching := ordered
	touching.Calls = []trace.MethodCall{ordered.Calls[0], ordered.Calls[1]}
	touching.Calls[1].Start = ordered.Calls[0].End
	replays := []trace.Execution{buildSet(orderExec("r", trace.Failure, true)).Executions[0], touching}

	absent := ordered
	absent.Calls = absent.Calls[:1]
	nonLeaf := ordered
	nonLeaf.Calls = append([]trace.MethodCall{call("Inner", 1, 2, 4)}, ordered.Calls...)
	unordered := buildSet(orderExec("u", trace.Success, true)).Executions[0]
	// A trace file need not be canonical: First#0 twice in one baseline.
	duplicate := ordered
	duplicate.Calls = []trace.MethodCall{ordered.Calls[0], ordered.Calls[0], ordered.Calls[1]}
	readOnly := ordered
	readOnly.Calls = []trace.MethodCall{
		withAccess(ordered.Calls[0], trace.Access{Object: "data", Kind: trace.Read, At: 1}),
		ordered.Calls[1],
	}
	for _, tc := range []struct {
		name      string
		baselines []trace.Execution
		want      bool
	}{
		{"ordered", []trace.Execution{ordered, ordered}, true},
		{"absent", []trace.Execution{ordered, absent}, false},
		{"non-leaf", []trace.Execution{ordered, nonLeaf}, false},
		{"unordered", []trace.Execution{ordered, unordered}, false},
		{"duplicate", []trace.Execution{ordered, duplicate}, false},
		{"no conflict", []trace.Execution{readOnly, readOnly}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := evalMatches(t, corpus, tc.baselines, replays, id); got[0] != tc.want || got[1] {
				t.Fatalf("%s occurs = %v, want [%v false]", id, got, tc.want)
			}
		})
	}
}

// TestMonitorsRaceWindows checks race windows: a lock held across both
// windows rules a race out and one held at only some accesses does not,
// windows that merely touch do not interleave, and a window spans its
// earliest to latest access whatever their order in the trace.
func TestMonitorsRaceWindows(t *testing.T) {
	corpus := Extract(buildSet(
		raceExec("s", trace.Success, false, nil), raceExec("f", trace.Failure, true, nil),
	), Config{DurationMargin: 4})
	const id = ID("race:Reader|Writer@idx")
	throughout := raceExec("held", trace.Failure, true, []string{"mu", "other"})
	partial := raceExec("partial", trace.Failure, true, []string{"mu"})
	partial.Calls[0].Accesses[1].Locks = nil // released before the window's last read
	touching := raceExec("touching", trace.Failure, true, nil)
	touching.Calls[1].Accesses[0].At = 9 // the write lands on the window's last read
	reversed := raceExec("reversed", trace.Failure, true, nil)
	reversed.Calls[0].Accesses[0].At = 12 // reads at 12 then 9: window [9,12]
	reversed.Calls[1].Accesses[0].At = 10 // holds the write at 10
	baselines := buildSet(raceExec("s", trace.Success, false, nil)).Executions
	replays := []trace.Execution{throughout, partial, touching, reversed, {ID: "no calls"}}
	got := evalMatches(t, corpus, baselines, replays, id)
	if want := []bool{false, true, false, true, false}; !slices.Equal(got, want) {
		t.Fatalf("%s occurs = %v, want %v", id, got, want)
	}
}

// TestMonitorsAtomicityBaselineFacts checks that an atomicity violation
// occurs only for a pair some baseline establishes and none violates.
func TestMonitorsAtomicityBaselineFacts(t *testing.T) {
	corpus := Extract(buildSet(
		atomicityExec("s", trace.Success, false), atomicityExec("f", trace.Failure, true),
	), Config{DurationMargin: 4})
	const id = ID("atom:ReadCfg#0,UseCfg#0@cfg")
	replays := buildSet(atomicityExec("r", trace.Failure, true)).Executions
	clean := buildSet(atomicityExec("s", trace.Success, false)).Executions
	violated := buildSet(atomicityExec("s", trace.Success, false), atomicityExec("v", trace.Success, true)).Executions
	if got := evalMatches(t, corpus, clean, replays, id); !got[0] {
		t.Fatalf("%s did not occur against clean baselines", id)
	}
	if got := evalMatches(t, corpus, violated, replays, id); got[0] {
		t.Fatalf("%s occurred although a baseline violates it", id)
	}
	if got := evalMatches(t, corpus, nil, replays, id); got[0] {
		t.Fatalf("%s occurred with no baseline to establish it", id)
	}
}

// TestMonitorsRejectFailedBaselines pins the compile-time invariant: a
// failed execution cannot be a success baseline.
func TestMonitorsRejectFailedBaselines(t *testing.T) {
	set := benchSet(9, 10) // every third execution fails
	c := Extract(set, Config{DurationMargin: 4})
	ls := trace.Intern(set)
	if _, err := CompileMonitors(c, ls.Syms, ls, Config{DurationMargin: 4}); err == nil {
		t.Fatal("failed baseline accepted")
	}
}

// TestMonitorsIgnoreMismatchedIDs pins how monitors read a predicate
// that extraction did not build: an ID that is not the one its fields
// give never occurs, even where the fields' predicate does.
func TestMonitorsIgnoreMismatchedIDs(t *testing.T) {
	baselines := buildSet(raceExec("s", trace.Success, false, nil)).Executions
	c := Extract(buildSet(baselines[0], raceExec("f", trace.Failure, true, nil)), Config{DurationMargin: 4})
	mismatched := []Predicate{
		{ID: "fails:Other#0", Kind: KindMethodFails, Methods: []string{"Reader"}},
		{ID: "race:Reader|Writer@other", Kind: KindDataRace, Methods: []string{"Reader", "Writer"}, Object: "idx"},
	}
	for _, p := range mismatched {
		c.AddPred(p)
	}
	replay := raceExec("r", trace.Failure, true, nil)
	replay.Calls[0].Exception = "Boom" // Reader fails and races, as the fields say
	ms, logs := compileOn(t, c, baselines, []trace.Execution{replay}, Config{DurationMargin: 4})
	hit := evalLog(ms, &logs[0])
	for _, p := range mismatched {
		if h, _ := c.HandleOf(p.ID); hit[h] {
			t.Errorf("%s occurred", p.ID)
		}
	}
	if h, _ := c.HandleOf("race:Reader|Writer@idx"); !hit[h] {
		t.Error("the well-formed race did not occur")
	}
}

// splitBench returns benchSet's successful executions as baselines and
// its failed ones as replays, with the corpus extracted over all of
// them plus a compound of two predicates that occur in failures. The
// replays are cut to different lengths, so each lacks calls (and their
// predicates) that others have.
func splitBench(t *testing.T, cfg Config) (c *Corpus, baselines, replays []trace.Execution) {
	t.Helper()
	set := benchSet(30, 24)
	for _, e := range set.Executions {
		if e.Failed() {
			replays = append(replays, e)
		} else {
			baselines = append(baselines, e)
		}
	}
	for r := range replays {
		replays[r].Calls = replays[r].Calls[:len(replays[r].Calls)-3*(r%4)]
	}
	c = Extract(set, cfg)
	var members []ID
	for _, p := range c.Preds {
		if _, inF, _ := c.counts(p.ID); p.Kind != KindFailure && inF > 0 && len(members) < 2 {
			members = append(members, p.ID)
		}
	}
	p, err := c.CompoundAnd(members...)
	if err != nil {
		t.Fatal(err)
	}
	c.MaterializeCompound(p)
	return c, baselines, replays
}

// requireBits compares one round's monitor answers, over the round's
// logs, with the reference and counts the predicate bits that were set.
func requireBits(t *testing.T, c *Corpus, ms *Monitors, baselines, round []trace.Execution, logs []trace.RunLog, cfg Config) (set int) {
	t.Helper()
	want := referenceBits(c, baselines, round, cfg)
	for r := range round {
		got := evalLog(ms, &logs[r])
		for i, p := range c.Preds {
			if got[i] != want[r][i] {
				t.Fatalf("replay %s: %s monitor says %v, reference %v", round[r].ID, p.ID, got[i], want[r][i])
			}
			if got[i] {
				set++
			}
		}
	}
	return set
}

// TestExtractorSubsetReplays checks that a replay's observation does not
// depend on which other replays share its round: monitors compiled once
// against the baselines answer every prefix of the replays exactly as
// one-shot extraction over baselines ++ that prefix does. (The name is
// kept from the replay Extractor the monitors replaced.)
func TestExtractorSubsetReplays(t *testing.T) {
	cfg := Config{DurationMargin: 4}
	c, baselines, replays := splitBench(t, cfg)
	ms, logs := compileOn(t, c, baselines, replays, cfg)
	if !slices.Equal(ms.IDs(), c.IDs()) {
		t.Fatalf("monitors watch %v, corpus has %v", ms.IDs(), c.IDs())
	}
	for cut := 1; cut <= len(replays); cut++ {
		if requireBits(t, c, ms, baselines, replays[:cut], logs[:cut], cfg) == 0 {
			t.Fatalf("cut %d: no predicate occurred in any replay", cut)
		}
	}
}

// TestExtractReplaysMatchesExtract checks that reused monitors carry
// nothing from one round to the next: across rounds that shrink, grow
// and reverse the replay set, every answer equals one-shot extraction
// over baselines ++ that round, compound included. (The name is kept
// from ExtractReplays, whose reused overlay the monitors replaced.)
func TestExtractReplaysMatchesExtract(t *testing.T) {
	cfg := Config{DurationMargin: 4}
	c, baselines, replays := splitBench(t, cfg)
	ms, logs := compileOn(t, c, baselines, replays, cfg)
	compound := c.Preds[len(c.Preds)-1].ID
	h, _ := c.HandleOf(compound)
	cuts := []int{len(replays), 3, len(replays) / 2, len(replays), 1, len(replays)}
	sawCompound := false
	for round, cut := range cuts {
		sub, subLogs := slices.Clone(replays[:cut]), slices.Clone(logs[:cut])
		if round%2 == 1 {
			slices.Reverse(sub)
			slices.Reverse(subLogs)
		}
		requireBits(t, c, ms, baselines, sub, subLogs, cfg)
		for r := range subLogs {
			sawCompound = sawCompound || evalLog(ms, &subLogs[r])[h]
		}
	}
	if !sawCompound {
		t.Fatalf("compound %s never occurred", compound)
	}
}
