package main

import (
	"fmt"
	"math/rand/v2"
)

// Every workload's ops come from a generator seeded only by the workload
// seed, so a seed names one input sequence; the program under test sees
// nothing but the generated inputs.

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// studySeeds bounds the algorithm seeds a studies op draws: seeds 1–30
// find every study's known cause, while AID rounds and TAGT tests vary
// with the seed.
const studySeeds = 30

// studyItem is one debugging run: a case study and the algorithm seed
// its fresh pipeline runs with.
type studyItem struct {
	Study string
	Seed  int64
}

// studiesGen yields studies ops. An op is one pass over every case study
// in a seeded order: one item per input class, so a per-run median does
// not depend on which study a sample happens to come from.
type studiesGen struct {
	rng   *rand.Rand
	names []string
}

func newStudiesGen(seed int64, names []string) *studiesGen {
	return &studiesGen{rng: newRNG(seed, 1), names: names}
}

func (g *studiesGen) next() []studyItem {
	op := make([]studyItem, len(g.names))
	for i, j := range g.rng.Perm(len(g.names)) {
		op[i] = studyItem{Study: g.names[j], Seed: 1 + g.rng.Int64N(studySeeds)}
	}
	return op
}

// syntheticItem is one generated Fig. 8 instance.
type syntheticItem struct {
	MaxT int
	Seed int64
}

// syntheticGen yields synthetic ops. An op is one Fig. 8 bundle: an
// instance at each MaxT, each with its own seeded generator input.
type syntheticGen struct {
	rng   *rand.Rand
	maxTs []int
}

func newSyntheticGen(seed int64, maxTs []int) *syntheticGen {
	return &syntheticGen{rng: newRNG(seed, 2), maxTs: maxTs}
}

func (g *syntheticGen) next() []syntheticItem {
	op := make([]syntheticItem, len(g.maxTs))
	for i, t := range g.maxTs {
		op[i] = syntheticItem{MaxT: t, Seed: 1 + g.rng.Int64N(1<<40)}
	}
	return op
}

// The serve traffic mix. Each caller owns its own tenants, so a tenant's
// ops run one after another and whether a repeated spec finds a warm
// memo is decided by the op list alone, not by how the callers
// interleave. Ops come in blocks that hold every study the same number
// of times in every role, in a seeded order: the studies differ twenty-
// fold in cost, so a mix drawn op by op would move a run's figures with
// the seed.
const (
	// A block holds, per study, blockNew sessions of new specs and
	// blockRepeat repeats of an earlier spec of the same tenant and
	// study, plus one corpus PUT (a re-upload that drops the tenant's
	// memos over that corpus): 24 sessions and 1 PUT.
	blockNew    = 2
	blockRepeat = 2
	// blockOffline of a block's 12 new sessions debug the tenant's
	// ingested corpus instead of collecting live (a quarter).
	blockOffline = 3
	// recentSpecs bounds how far back a repeat reaches: the last two
	// new specs of a tenant and study. Twelve such specs per tenant sit
	// well inside the daemon's default 32-memo LRU, so a repeat finds
	// its memo warm unless a re-upload dropped it.
	recentSpecs = 2
	// serveSeeds bounds the algorithm seeds of session specs; all of
	// 1–120 find every study's known cause, which leaves each tenant,
	// study and source 120 distinct new specs.
	serveSeeds = 120
)

// sessionSpec is the body of a session POST, in the daemon's field names.
type sessionSpec struct {
	Study   string `json:"study"`
	Corpus  string `json:"corpus,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	NoShare bool   `json:"noShare,omitempty"`
}

// serveOp is one caller op: a session, or a corpus PUT when Put is set.
type serveOp struct {
	Tenant string
	Put    bool
	// Study names the corpus a PUT uploads, or the session's program.
	Study string
	// Spec is the session's spec; Repeat marks a spec the tenant ran
	// before.
	Spec   sessionSpec
	Repeat bool
}

func (o serveOp) class() string {
	switch {
	case o.Put:
		return "put"
	case o.Repeat:
		return "repeat"
	case o.Spec.Corpus != "":
		return "new-offline"
	default:
		return "new-live"
	}
}

func (o serveOp) String() string {
	if o.Put {
		return fmt.Sprintf("PUT %s/%s", o.Tenant, o.Study)
	}
	return fmt.Sprintf("%s %s %+v", o.class(), o.Tenant, o.Spec)
}

// slot is an op's place in a block, before a tenant and spec fill it.
type slot struct {
	study            string
	put, repeat, off bool
}

type serveGen struct {
	rng     *rand.Rand
	tenants []string
	studies []string
	block   []slot
	// history lists each tenant's new specs per study, oldest first.
	history map[string]map[string][]sessionSpec
	used    map[tenantSpec]bool
}

// tenantSpec is a spec as one tenant runs it.
type tenantSpec struct {
	tenant string
	spec   sessionSpec
}

// newServeGen builds the op generator of one caller over its tenants.
func newServeGen(seed int64, caller int, tenants, studies []string) *serveGen {
	return &serveGen{
		rng:     newRNG(seed, 100+uint64(caller)),
		tenants: tenants,
		studies: studies,
		history: map[string]map[string][]sessionSpec{},
		used:    map[tenantSpec]bool{},
	}
}

func (g *serveGen) fillBlock() {
	g.block = g.block[:0]
	var fresh []int
	for _, st := range g.studies {
		for k := range blockNew + blockRepeat {
			if k >= blockRepeat {
				fresh = append(fresh, len(g.block))
			}
			g.block = append(g.block, slot{study: st, repeat: k < blockRepeat})
		}
	}
	for _, i := range g.rng.Perm(len(fresh))[:blockOffline] {
		g.block[fresh[i]].off = true
	}
	g.block = append(g.block, slot{study: g.studies[g.rng.IntN(len(g.studies))], put: true})
	g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
}

func (g *serveGen) next() serveOp {
	if len(g.block) == 0 {
		g.fillBlock()
	}
	s := g.block[0]
	g.block = g.block[1:]
	tenant := g.tenants[g.rng.IntN(len(g.tenants))]
	if s.put {
		return serveOp{Tenant: tenant, Put: true, Study: s.study}
	}
	if g.history[tenant] == nil {
		g.history[tenant] = map[string][]sessionSpec{}
	}
	h := g.history[tenant][s.study]
	if s.repeat && len(h) > 0 {
		recent := h[max(0, len(h)-recentSpecs):]
		spec := recent[g.rng.IntN(len(recent))]
		return serveOp{Tenant: tenant, Study: s.study, Spec: spec, Repeat: true}
	}
	// A new spec; a repeat slot with no history yet becomes one too.
	// Once all seeds of this tenant, study and source are used, the op
	// repeats instead.
	for _, k := range g.rng.Perm(serveSeeds) {
		spec := sessionSpec{Study: s.study, Seed: int64(k) + 1}
		if s.off {
			spec.Corpus = s.study
		}
		if key := (tenantSpec{tenant, spec}); !g.used[key] {
			g.used[key] = true
			g.history[tenant][s.study] = append(h, spec)
			return serveOp{Tenant: tenant, Study: s.study, Spec: spec}
		}
	}
	return serveOp{Tenant: tenant, Study: s.study, Spec: h[len(h)-1], Repeat: true}
}
