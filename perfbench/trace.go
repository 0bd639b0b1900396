package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aid/internal/core"
	"aid/internal/inject"
	"aid/internal/predicate"
	"aid/internal/synthetic"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the span is an op
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	// N is the work the span did, where it has a count: replays run,
	// rounds, tests, predicates.
	N int `json:"n,omitempty"`
	// LeafN calls too short and frequent to keep as spans of their own
	// (synthetic world evaluations) ran directly inside this span and
	// took LeafNs in all.
	LeafN  int   `json:"leaf_n,omitempty"`
	LeafNs int64 `json:"leaf_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a run's spans in memory; they are written out once the
// run ends. begin/end nest spans on a stack, which suits the
// single-caller workloads; serve's two callers add finished spans with
// explicit parents through put.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// beginOp opens the span of op id; every span until its end belongs to
// it.
func (r *recorder) beginOp(id int) int {
	r.mu.Lock()
	r.op = id
	r.mu.Unlock()
	return r.begin("op", "")
}

func (r *recorder) begin(name, label string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Label: label, Start: r.at(time.Now())})
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id, n int) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if k := len(r.stack); k == 0 || r.stack[k-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	r.stack = r.stack[:len(r.stack)-1]
	s := &r.spans[id-1]
	s.End, s.N = r.at(now), n
}

// leaf folds one leaf call of duration d into the innermost open span.
func (r *recorder) leaf(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k := len(r.stack); k > 0 {
		s := &r.spans[r.stack[k-1]-1]
		s.LeafN++
		s.LeafNs += int64(d)
	}
}

// put adds a finished span and returns its id.
func (r *recorder) put(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals sums, per span name, duration, self time (duration minus
// the part of the span its children and leaf calls cover), count, work
// and leaf calls. The self time of "op" spans is the part of each op no
// layer span explains.
type layerTotals struct {
	dur, self       map[string]int64
	count, n, leafN map[string]int
	// under counts spans and work by parent name: under["tagt"]["replay"].
	underCount, underN map[string]map[string]int
	ops                int
}

func totals(spans []span) layerTotals {
	t := layerTotals{
		dur: map[string]int64{}, self: map[string]int64{},
		count: map[string]int{}, n: map[string]int{}, leafN: map[string]int{},
		underCount: map[string]map[string]int{}, underN: map[string]map[string]int{},
	}
	children := map[int][]span{}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		t.dur[s.Name] += s.dur()
		t.self[s.Name] += s.dur() - covered(s, children[s.ID]) - s.LeafNs
		t.count[s.Name]++
		t.n[s.Name] += s.N
		t.leafN[s.Name] += s.LeafN
		if s.Name == "op" {
			t.ops++
		}
		if p, ok := byID[s.Parent]; ok {
			if t.underCount[p.Name] == nil {
				t.underCount[p.Name] = map[string]int{}
				t.underN[p.Name] = map[string]int{}
			}
			t.underCount[p.Name][s.Name]++
			t.underN[p.Name][s.Name] += s.N
		}
	}
	return t
}

// covered is how much of parent's interval the union of its children's
// intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// perOp is a total in milliseconds per op.
func (t layerTotals) msPerOp(ns int64) float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(t.ops)
}

func (t layerTotals) perOp(x int) float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(x) / float64(t.ops)
}

// timedExecutor times an inject.Executor at the replay boundary. It
// implements core.BatchIntervener as well as Intervene: the scheduler
// batches only when its intervener can, so a wrapper without
// InterveneBatch would silently turn batching off.
type timedExecutor struct {
	exec *inject.Executor
	rec  *recorder
}

var _ core.BatchIntervener = (*timedExecutor)(nil)

func (t *timedExecutor) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	id := t.rec.begin("replay", "")
	obs, err := t.exec.Intervene(ctx, preds)
	t.rec.end(id, len(t.exec.Seeds))
	return obs, err
}

func (t *timedExecutor) InterveneBatch(ctx context.Context, groups [][]predicate.ID) ([][]core.Observation, error) {
	id := t.rec.begin("replay", "")
	obs, err := t.exec.InterveneBatch(ctx, groups)
	t.rec.end(id, len(groups)*len(t.exec.Seeds))
	return obs, err
}

// timedWorld times a synthetic ground-truth world at the same boundary,
// as leaf calls: an evaluation takes microseconds and a bundle makes
// hundreds. World has no InterveneBatch, so neither has the wrapper.
type timedWorld struct {
	w   *synthetic.World
	rec *recorder
}

func (t *timedWorld) Intervene(ctx context.Context, preds []predicate.ID) ([]core.Observation, error) {
	t0 := time.Now()
	obs, err := t.w.Intervene(ctx, preds)
	t.rec.leaf(time.Since(t0))
	return obs, err
}
