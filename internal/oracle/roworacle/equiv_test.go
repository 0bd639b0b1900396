package roworacle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"aid/internal/acdag"
	"aid/internal/predicate"
	"aid/internal/statdebug"
	"aid/internal/trace"
)

// genCase is one randomized corpus: a predicate table (mixed kinds,
// repairs, unobserved entries) plus row-oriented logs.
type genCase struct {
	preds []predicate.Predicate
	logs  []Log
}

func genCorpus(rng *rand.Rand) genCase {
	nPreds := 3 + rng.Intn(10)
	nLogs := 2 + rng.Intn(9)

	var preds []predicate.Predicate
	preds = append(preds, predicate.FailurePredicate())
	for i := 0; i < nPreds; i++ {
		var p predicate.Predicate
		p.ID = predicate.ID(fmt.Sprintf("p%02d", i))
		switch rng.Intn(4) {
		case 0:
			p.Kind, p.Stamp = predicate.KindWrongReturn, predicate.ByEnd
		case 1:
			p.Kind, p.Stamp = predicate.KindTooSlow, predicate.ByEnd // durational
		case 2:
			p.Kind, p.Stamp = predicate.KindDataRace, predicate.ByStart
		default:
			p.Kind, p.Stamp = predicate.KindStartsLate, predicate.ByStart
		}
		switch rng.Intn(4) {
		case 0:
			p.Repair = predicate.Intervention{Kind: predicate.IvNone}
		case 1:
			p.Repair = predicate.Intervention{Kind: predicate.IvOverrideReturn, Safe: false}
		default:
			p.Repair = predicate.Intervention{Kind: predicate.IvLockMethods, Safe: true}
		}
		preds = append(preds, p)
	}

	logs := make([]Log, nLogs)
	for l := 0; l < nLogs; l++ {
		failed := rng.Intn(2) == 0
		occ := make(map[predicate.ID]predicate.Occurrence)
		if failed && rng.Intn(8) != 0 { // occasionally omit F from a failed log
			occ[predicate.FailureID] = predicate.Occurrence{Start: 1000, End: 1001, Thread: predicate.NoThread}
		}
		for _, p := range preds[1:] {
			if rng.Intn(3) == 0 {
				continue // absent in this log (some predicates end up unobserved)
			}
			start := trace.Time(rng.Intn(40))
			end := start + trace.Time(1+rng.Intn(30))
			th := trace.ThreadID(rng.Intn(3) - 1) // -1, 0, 1
			occ[p.ID] = predicate.Occurrence{Start: start, End: end, Thread: th}
		}
		logs[l] = Log{ExecID: fmt.Sprintf("e%02d", l), Failed: failed, Occ: occ}
	}
	return genCase{preds: preds, logs: logs}
}

// build ingests the same generated data into both representations.
func (g genCase) build() (*predicate.Corpus, *Corpus) {
	col := predicate.NewCorpus()
	row := NewCorpus()
	for _, p := range g.preds {
		col.AddPred(p)
		row.AddPred(p)
	}
	for _, l := range g.logs {
		// Fresh map copies: compound materialization mutates the row
		// corpus's maps and must not alias the generator's.
		cp := make(map[predicate.ID]predicate.Occurrence, len(l.Occ))
		for id, o := range l.Occ {
			cp[id] = o
		}
		col.AddLog(l.ExecID, l.Failed, l.Occ)
		row.AddLog(l.ExecID, l.Failed, cp)
	}
	return col, row
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func expectEqual(t *testing.T, trial int, what string, got, want any) {
	t.Helper()
	g, w := mustJSON(t, got), mustJSON(t, want)
	if !bytes.Equal(g, w) {
		t.Fatalf("trial %d: columnar %s diverges from row oracle\ncolumnar: %s\noracle:   %s",
			trial, what, g, w)
	}
}

// dagView is the comparable projection of a built DAG.
type dagView struct {
	Nodes  []predicate.ID
	Edges  [][2]predicate.ID
	Report *acdag.BuildReport
	Err    string
}

func viewOf(d *acdag.DAG, rep *acdag.BuildReport, err error) dagView {
	v := dagView{Report: rep}
	if err != nil {
		v.Err = err.Error()
		return v
	}
	v.Nodes = d.Nodes()
	v.Edges = d.ReductionEdges()
	return v
}

// TestColumnarMatchesRowOracle pins the columnar corpus's statistical
// debugging and AC-DAG construction byte-identical (as JSON) to the
// pre-refactor row-oriented path on randomized corpora: mixed predicate
// kinds (durational and instantaneous, safe and unsafe repairs),
// unobserved predicates, missing-F failed logs, and compound
// generation.
func TestColumnarMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 300; trial++ {
		g := genCorpus(rng)
		col, row := g.build()

		expectEqual(t, trial, "Scores", statdebug.Scores(col), Scores(row))
		expectEqual(t, trial, "FullyDiscriminative", statdebug.FullyDiscriminative(col), FullyDiscriminative(row))
		for _, p := range g.preds {
			var co, cf int
			if h, ok := col.HandleOf(p.ID); ok {
				co, cf = col.CountsAt(h)
			}
			cn := col.FailedCount()
			ro, rf, rn := row.Counts(p.ID)
			if co != ro || cf != rf || cn != rn {
				t.Fatalf("trial %d: Counts(%s) = (%d,%d,%d), oracle (%d,%d,%d)",
					trial, p.ID, co, cf, cn, ro, rf, rn)
			}
		}

		// Compound generation mutates both corpora identically.
		maxComp := rng.Intn(4) // includes 0 = unlimited
		expectEqual(t, trial, "GenerateCompounds", statdebug.GenerateCompounds(col, maxComp), GenerateCompounds(row, maxComp))
		expectEqual(t, trial, "post-compound Preds", col.Preds, row.Preds)
		expectEqual(t, trial, "post-compound FullyDiscriminative", statdebug.FullyDiscriminative(col), FullyDiscriminative(row))

		// AC-DAG construction over the SD candidates, then over a random
		// candidate subset (exercising the unsafe and counterfactual
		// filters).
		cands := statdebug.FullyDiscriminative(col)
		cd, crep, cerr := acdag.Build(col, cands, acdag.BuildOptions{})
		rd, rrep, rerr := Build(row, cands, acdag.BuildOptions{})
		expectEqual(t, trial, "Build(SD candidates)", viewOf(cd, crep, cerr), viewOf(rd, rrep, rerr))

		var subset []predicate.ID
		for _, p := range g.preds[1:] {
			if rng.Intn(2) == 0 {
				subset = append(subset, p.ID)
			}
		}
		// DropUnobserved has not run: unobserved predicates are legal
		// candidates and must be filtered identically.
		cd2, crep2, cerr2 := acdag.Build(col, subset, acdag.BuildOptions{})
		rd2, rrep2, rerr2 := Build(row, subset, acdag.BuildOptions{})
		expectEqual(t, trial, "Build(random candidates)", viewOf(cd2, crep2, cerr2), viewOf(rd2, rrep2, rerr2))
	}
}

// TestRowOracleCodecRoundTrip cross-checks FromColumnar against the
// streaming ingest: materializing the columnar corpus back to rows
// reproduces the generated data exactly.
func TestRowOracleCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := genCorpus(rng)
		col, _ := g.build()
		back := FromColumnar(col)
		if len(back.Logs) != len(g.logs) {
			t.Fatalf("trial %d: %d logs, want %d", trial, len(back.Logs), len(g.logs))
		}
		for i, l := range g.logs {
			expectEqual(t, trial, "round-trip log", back.Logs[i].Occ, l.Occ)
			if back.Logs[i].ExecID != l.ExecID || back.Logs[i].Failed != l.Failed {
				t.Fatalf("trial %d: log %d header mismatch", trial, i)
			}
		}
	}
}

// genChains is a large randomized corpus whose stamps form precedence
// chains: 60–120 predicates with safe repairs over 30–60 failed logs
// (and a few successes). Each predicate has a base time, and its
// occurrences in a log jitter around it, so predicates far apart in base
// time order in every log and near ones in some. Durational predicates
// sit on a thread, some nested inside another's window on its thread and
// some after another's window there; some stamps tie another
// predicate's in a log, some occurrences are attributed to no thread,
// and a few predicates miss one failed log.
func genChains(rng *rand.Rand) genCase {
	nPreds := 60 + rng.Intn(61)
	nFail := 30 + rng.Intn(31)
	preds := []predicate.Predicate{predicate.FailurePredicate()}
	base := make([]trace.Time, nPreds)
	thread := make([]trace.ThreadID, nPreds)
	parent := make([]int, nPreds) // durational: a window it nests in (>= 0) or follows (< -1)
	for i := 0; i < nPreds; i++ {
		p := predicate.Predicate{
			ID:     predicate.ID(fmt.Sprintf("c%03d", i)),
			Repair: predicate.Intervention{Kind: predicate.IvLockMethods, Safe: true},
		}
		switch rng.Intn(4) {
		case 0:
			p.Kind, p.Stamp = predicate.KindTooSlow, predicate.ByEnd // durational
		case 1:
			p.Kind, p.Stamp = predicate.KindWrongReturn, predicate.ByEnd
		case 2:
			p.Kind, p.Stamp = predicate.KindDataRace, predicate.ByStart
		default:
			p.Kind, p.Stamp = predicate.KindStartsLate, predicate.ByStart
		}
		preds = append(preds, p)
		base[i] = trace.Time(rng.Intn(nPreds) * 6)
		thread[i] = trace.ThreadID(rng.Intn(3) - 1) // -1 is NoThread
		parent[i] = -1
		if p.Kind.Durational() && i > 0 && rng.Intn(2) == 0 {
			q := rng.Intn(i)
			if preds[1+q].Kind.Durational() && parent[q] == -1 {
				if thread[q] == predicate.NoThread {
					thread[q] = 0
				}
				thread[i] = thread[q]
				if rng.Intn(2) == 0 {
					parent[i] = q // nested
				} else {
					parent[i] = -2 - q // after q's window
				}
			}
		}
	}
	var logs []Log
	for l := 0; l < nFail+5; l++ {
		failed := l < nFail
		occ := map[predicate.ID]predicate.Occurrence{}
		if failed {
			occ[predicate.FailureID] = predicate.Occurrence{Start: 10000, End: 10001, Thread: predicate.NoThread}
		}
		for i := 0; i < nPreds; i++ {
			if !failed && rng.Intn(2) == 0 || failed && rng.Intn(40*nFail) == 0 {
				continue
			}
			start := base[i] + trace.Time(rng.Intn(10))
			o := predicate.Occurrence{Start: start, End: start + 1 + trace.Time(rng.Intn(4)), Thread: thread[i]}
			if preds[1+i].Kind.Durational() {
				o.End = start + 4 + trace.Time(rng.Intn(12))
			}
			if q := parent[i]; q >= 0 {
				if po, ok := occ[preds[1+q].ID]; ok && po.End-po.Start > 2 {
					o.Start = po.Start + 1 + trace.Time(rng.Intn(int(po.End-po.Start-1)))
					o.End = o.Start + trace.Time(rng.Intn(int(po.End-o.Start)))
				}
			} else if q < -1 {
				if po, ok := occ[preds[-1-q].ID]; ok {
					o.Start = po.End + trace.Time(rng.Intn(3))
					o.End = o.Start + 2 + trace.Time(rng.Intn(6))
				}
			}
			if i > 0 && parent[i] == -1 && rng.Intn(10) == 0 {
				if po, ok := occ[preds[i].ID]; ok { // tie the previous predicate
					o.Start, o.End = po.Start, po.End
				}
			}
			occ[preds[1+i].ID] = o
		}
		logs = append(logs, Log{ExecID: fmt.Sprintf("e%02d", l), Failed: failed, Occ: occ})
	}
	return genCase{preds: preds, logs: logs}
}

// TestColumnarMatchesRowOracleLargeCorpus pins Build's precedence
// kernel to the row oracle's scalar pairPrecedes loop on large
// corpora with long precedence chains, over every predicate as a
// candidate. The corpora must yield durational edges of both kinds the
// full rule allows, a nested window before its encloser and a window
// before a later one, and stamps that tie.
func TestColumnarMatchesRowOracleLargeCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	nested, disjoint, ties := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		g := genChains(rng)
		col, row := g.build()
		var cands []predicate.ID
		for _, p := range g.preds[1:] {
			cands = append(cands, p.ID)
		}
		cd, crep, cerr := acdag.Build(col, cands, acdag.BuildOptions{})
		rd, rrep, rerr := Build(row, cands, acdag.BuildOptions{})
		expectEqual(t, trial, "Build(every predicate)", viewOf(cd, crep, cerr), viewOf(rd, rrep, rerr))
		if cerr != nil {
			t.Fatal(cerr)
		}
		depth := 0
		first := g.logs[0].Occ
		for i := 0; i < cd.Len(); i++ {
			depth = max(depth, cd.LevelsIndex(nil)[i])
			a := first[cd.IDAt(i)]
			for j := 0; j < cd.Len(); j++ {
				b := first[cd.IDAt(j)]
				if i < j && a.StampTime(col.Pred(cd.IDAt(i)).Stamp) == b.StampTime(col.Pred(cd.IDAt(j)).Stamp) {
					ties++
				}
				if !cd.PrecedesIndex(i, j) || !col.Pred(cd.IDAt(i)).Kind.Durational() || !col.Pred(cd.IDAt(j)).Kind.Durational() {
					continue
				}
				if a.End < b.Start {
					disjoint++
				} else if a.Start >= b.Start && a.End <= b.End {
					nested++
				}
			}
		}
		if cd.Len() < 50 || depth < 5 {
			t.Fatalf("trial %d: %d nodes, depth %d: the corpus has no long chains to pin", trial, cd.Len(), depth)
		}
	}
	if nested == 0 || disjoint == 0 || ties == 0 {
		t.Fatalf("durational edges: %d nested, %d disjoint; %d tied stamps: the corpora miss a case", nested, disjoint, ties)
	}
	t.Logf("durational edges: %d nested, %d disjoint; %d tied stamps", nested, disjoint, ties)
}
