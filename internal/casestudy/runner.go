// Package casestudy reproduces the paper's six real-world case studies
// (§7.1 / Fig. 7) on the simulator substrate.
//
// Each study models the same bug class as the original application —
// Npgsql's data race on a pool index (GitHub #2485), Kafka's
// use-after-free of a disposed consumer (#279), a Cosmos DB
// application's cache-expiry timing bug (#713), and the three
// proprietary Microsoft applications (Network: random-number collision;
// BuildAndTest: order violation; HealthTelemetry: race condition) — as
// a small concurrent program that fails intermittently under the seeded
// scheduler. Collect gathers a study's trace corpus; the rest of the
// pipeline runs behind the root package's aid.Pipeline.
package casestudy

import (
	"context"
	"fmt"
	"sync"

	"aid/internal/par"
	"aid/internal/predicate"
	"aid/internal/sim"
	"aid/internal/trace"
)

// Study is one case-study application.
type Study struct {
	// Name identifies the study ("npgsql", "kafka", ...).
	Name string
	// Issue references the public bug report ("npgsql#2485") or "N/A".
	Issue string
	// Description summarizes the bug.
	Description string
	// Program is the simulated application.
	Program *sim.Program
	// FailureSig is the expected failure signature for grouping.
	FailureSig string
	// WantRootPrefix is the expected root-cause predicate ID prefix
	// ("race:", "slow:", ...), used by tests and reports.
	WantRootPrefix string
	// MaxSteps bounds each execution (0 = sim default).
	MaxSteps int
}

// sideEffectFree builds the predicate.Config safety oracle from the
// program's annotations.
func (s *Study) sideEffectFree(method string) bool {
	f, ok := s.Program.Funcs[method]
	return ok && f.SideEffectFree
}

// Config returns the extraction configuration for this study.
func (s *Study) Config() predicate.Config {
	return predicate.Config{SideEffectFree: s.sideEffectFree, DurationMargin: 4}
}

// CollectConfig sets Collect's quotas and pool width.
type CollectConfig struct {
	// Successes and Failures are the target corpus sizes (paper: 50/50).
	Successes, Failures int
	// SeedCap bounds how many seeds to try while collecting.
	SeedCap int
	// Workers is the execution-pool width; <= 0 means GOMAXPROCS. Any
	// width collects the bit-identical corpus (see internal/par's
	// determinism contract).
	Workers int
	// OnCollect, when non-nil, is invoked after every collection chunk
	// with the running totals (observer hook; must not mutate state).
	OnCollect func(succ, fail int, seedsSwept int64)
}

// collectChunk sizes the seed chunks of a parallel sweep, per worker.
// Larger chunks amortize pool overhead; smaller chunks waste fewer
// executions past the quota cut-off.
const collectChunk = 16

// Collect runs the program over increasing seeds until the target
// numbers of successes and failures are gathered; it returns the corpus
// in log form, over the program's Symbols, and the failing seeds. A kept
// run is an owned copy of the machine's logs (sim.Prepared.RunIf): no
// trace is assembled, and no name is resolved (trace.LogSet.Set builds
// the interchange form).
//
// Seeds are swept in chunks across cc.Workers pool workers; chunk
// results are consumed in seed order with the same quota logic as a
// sequential sweep, so the collected corpus is bit-identical for any
// worker count. The sweep cuts off at the first chunk that fills both
// quotas (at most one chunk of executions is wasted). Counts only grow,
// so a run whose outcome class is already full when its chunk starts —
// or whose failure has another signature — can never be kept: it
// returns its verdict alone and its logs are never copied.
//
// An empty Study.FailureSig accepts failures of any signature (used by
// ad-hoc programs behind the public facade; the built-in studies all
// pin a signature). Cancelling ctx aborts the sweep within one
// task-drain with ctx's error.
func Collect(ctx context.Context, s *Study, cc CollectConfig) (*trace.LogSet, []int64, error) {
	pp, err := sim.Prepare(s.Program, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("casestudy %s: %w", s.Name, err)
	}
	syms, err := s.Program.Symbols()
	if err != nil {
		return nil, nil, fmt.Errorf("casestudy %s: %w", s.Name, err)
	}
	set := &trace.LogSet{Syms: syms}
	var failSeeds []int64
	succ, fail := 0, 0
	ours := func(v sim.Verdict) bool { return s.FailureSig == "" || v.Sig == s.FailureSig }
	// A chunk holds collectChunk seeds per worker, and never more than
	// the cap: no buffer here is sized by a requested number alone.
	chunk := max(int64(cc.SeedCap), 0)
	if w := int64(par.Workers(cc.Workers)); w <= chunk/collectChunk {
		chunk = w * collectChunk
	}
	var seeds []int64
	// kept[i] is the chunk's i-th run when kept (reused across chunks:
	// every run writes its slot).
	kept := make([]trace.LogRun, chunk)
	for base := int64(1); base <= int64(cc.SeedCap); base += chunk {
		if succ >= cc.Successes && fail >= cc.Failures {
			break
		}
		hi := base + chunk - 1
		if hi > int64(cc.SeedCap) {
			hi = int64(cc.SeedCap)
		}
		seeds = seeds[:0]
		for seed := base; seed <= hi; seed++ {
			seeds = append(seeds, seed)
		}
		wantSucc, wantFail := succ < cc.Successes, fail < cc.Failures
		keep := func(v sim.Verdict) bool {
			if v.Failed {
				return wantFail && ours(v)
			}
			return wantSucc
		}
		verdicts, err := par.Map(ctx, len(seeds), cc.Workers, func(i int) (sim.Verdict, error) {
			var v sim.Verdict
			kept[i], v = pp.RunIf(seeds[i], s.MaxSteps, keep)
			return v, nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("casestudy %s: %w", s.Name, err)
		}
		for i, v := range verdicts {
			if succ >= cc.Successes && fail >= cc.Failures {
				break
			}
			if v.Failed {
				if !ours(v) || fail >= cc.Failures {
					continue
				}
				fail++
				failSeeds = append(failSeeds, seeds[i])
			} else {
				if succ >= cc.Successes {
					continue
				}
				succ++
			}
			set.Runs = append(set.Runs, kept[i])
		}
		if cc.OnCollect != nil {
			cc.OnCollect(succ, fail, hi)
		}
	}
	if succ < cc.Successes || fail < cc.Failures {
		return nil, nil, fmt.Errorf("casestudy %s: collected %d successes / %d failures within %d seeds (want %d/%d)",
			s.Name, succ, fail, cc.SeedCap, cc.Successes, cc.Failures)
	}
	return set, failSeeds, nil
}

// allMemo builds the six studies once per process. Safe to share: a
// Study is read-only after construction and sim.Program is immutable
// from its first run (its compiled form is cached atomically), which
// concurrent in-run replay workers already rely on. Sharing also means
// every consumer — daemon sessions included — reuses one compiled
// program per study instead of recompiling per resolution.
var allMemo struct {
	once    sync.Once
	studies []*Study
	byName  map[string]*Study
}

func buildAll() {
	allMemo.studies = []*Study{
		Npgsql(), Kafka(), CosmosDB(), Network(), BuildAndTest(), HealthTelemetry(),
	}
	allMemo.byName = make(map[string]*Study, len(allMemo.studies))
	for _, s := range allMemo.studies {
		allMemo.byName[s.Name] = s
	}
}

// All returns the six case studies in the paper's order. The studies
// are shared, memoized instances; the slice itself is a fresh copy the
// caller may reorder.
func All() []*Study {
	allMemo.once.Do(buildAll)
	out := make([]*Study, len(allMemo.studies))
	copy(out, allMemo.studies)
	return out
}

// ByName returns the named study or nil.
func ByName(name string) *Study {
	allMemo.once.Do(buildAll)
	return allMemo.byName[name]
}
