// Package aid is a Go reproduction of "Causality-Guided Adaptive
// Interventional Debugging" (Fariha, Nath, Meliou — SIGMOD 2020).
//
// AID localizes the root cause of an application's intermittent failure
// and explains how it propagates: it extracts runtime predicates from
// execution traces, keeps the fully-discriminative ones (statistical
// debugging), over-approximates their causality with a
// temporal-precedence DAG, and then prunes that DAG with
// causality-guided group interventions (fault injection) until only the
// true causal path from root cause to failure remains.
//
// The root package is the public facade: a Pipeline built with
// functional options whose stages (Collect, Extract, Rank, BuildDAG,
// Discover, Explain) are individually callable and composable
// end-to-end via Run. Inputs arrive through the TraceSource interface —
// FromStudy (the paper's six case studies), FromProgram (a seed sweep
// over any simulated program), FromTraceFile (an offline JSON-lines
// corpus round-tripping WriteTraces), or FromStoredCorpus (such a
// corpus kept in log form, as the daemon stores uploads). Every stage
// honors its context.Context and aborts within one task-drain when
// cancelled; WithObserver streams typed per-phase progress events; Run
// returns the JSON-serializable Report shared by the CLI, the examples,
// and the aid serve daemon. See the package example for the complete
// loop.
//
// The algorithms live under internal/:
//
//	trace      execution-trace model (spans, accesses, codec)
//	sim        deterministic concurrency simulator + fault injection
//	rngfast    a bit-exact, lazily seeded stand-in for math/rand's source
//	par        shared worker-pool engine (deterministic ordered fan-out)
//	bitvec     packed bit vectors (corpus columns, DAG rows, pools)
//	predicate  predicate vocabulary and extraction from traces
//	effects    static side-effect analysis (safe and pure methods)
//	statdebug  statistical debugging (precision/recall, SD baseline)
//	acdag      the approximate causal DAG (AC-DAG) of §4
//	core       Algorithms 1–3: GIWP, Branch-Prune, Causal-Path-Discovery
//	grouptest  the TAGT baseline
//	inject     predicate repairs → simulator injection plans
//	explain    the narrative from root cause to failure (§7.1)
//	theory     §6 bounds and search-space analysis
//	synthetic  the Fig. 8 synthetic benchmark
//	casestudy  the six Fig. 7 case studies
//	chaos      seeded fault injection into the intervention oracle
//	service    the multi-tenant daemon behind aid serve
//	durable    atomic file replacement and retry for the daemon's state
//	oracle/…   test-only reference implementations (canon, caserun,
//	           chains, extractref, roworacle, tracejson)
//
// See README.md for a guided tour, DESIGN.md for the system inventory
// and the cancellation/determinism contracts, and EXPERIMENTS.md for
// the paper-versus-measured comparison. The benchmarks in bench_test.go
// regenerate every table and figure of the paper's evaluation through
// the public facade.
package aid
