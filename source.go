package aid

import (
	"context"
	"fmt"

	"aid/internal/casestudy"
	"aid/internal/predicate"
	"aid/internal/trace"
)

// A TraceSource produces the trace corpus a Pipeline debugs, together
// with everything the later stages need: the program to re-execute
// under interventions (nil for purely offline corpora), the extraction
// configuration, and the failure signature under debugging.
//
// Four implementations ship with the package: FromStudy (the built-in
// case studies), FromProgram (a simulator sweep over any Program),
// FromTraceFile (a JSON-lines corpus saved by WriteTraces — offline
// debugging), and FromStoredCorpus (such a corpus kept in log form, as
// the daemon stores uploads). Custom sources only need to honor ctx and
// the spec's corpus quotas.
type TraceSource interface {
	// Label names the source for reports and events.
	Label() string
	// Collect gathers the corpus under the pipeline's configuration.
	// Implementations must return ctx's error promptly when cancelled.
	Collect(ctx context.Context, spec CollectSpec) (*Traces, error)
}

// CollectSpec is the slice of the pipeline configuration that trace
// sources see.
type CollectSpec struct {
	// Successes and Failures are the target corpus sizes.
	Successes, Failures int
	// SeedCap bounds how many scheduler seeds to sweep.
	SeedCap int
	// Workers is the execution-pool width (<= 0 = GOMAXPROCS).
	Workers int
	// Observer receives CollectProgress events (may be nil).
	Observer Observer
}

// Traces is a collected corpus plus the context later pipeline stages
// need.
type Traces struct {
	// Set is the trace corpus in its interchange form, which custom
	// sources fill. The built-in sources keep the runs' logs instead:
	// FromStudy and FromProgram collect them, FromTraceFile decodes
	// them, and FromStoredCorpus holds them. Pipeline.Collect builds Set
	// from them; Pipeline.Run never does.
	Set *TraceSet
	// FailSeeds are the scheduler seeds that produced the collected
	// failures, in collection order; interventions replay a prefix.
	FailSeeds []int64
	// Program is the application for the intervention phase; nil means
	// interventions are unavailable (offline corpus without a program).
	Program *Program
	// Config is the predicate-extraction configuration.
	Config ExtractConfig
	// FailureSig scopes the failure predicate to one failure group
	// ("" = any failure).
	FailureSig string
	// MaxSteps bounds each re-execution (0 = simulator default).
	MaxSteps int

	// Source, Issue and Description label the origin for reports.
	Source      string
	Issue       string
	Description string

	// logs is the corpus in log form, as a built-in source collected,
	// decoded or holds it (nil for a source that hands over Set).
	logs *trace.LogSet
}

// counts returns the corpus's (#successes, #failures).
func (tr *Traces) counts() (succ, fail int) {
	if tr.logs != nil {
		return tr.logs.Counts()
	}
	return tr.Set.Counts()
}

// observeCollect adapts the spec's observer to casestudy.Collect's
// progress hook.
func (spec CollectSpec) observeCollect() func(succ, fail int, seedsSwept int64) {
	if spec.Observer == nil {
		return nil
	}
	return func(succ, fail int, seedsSwept int64) {
		spec.Observer.OnEvent(CollectProgress{Successes: succ, Failures: fail, SeedsSwept: seedsSwept})
	}
}

// ---- Case-study source ----

// StudySource collects traces from one built-in case study.
type StudySource struct {
	study *casestudy.Study
}

// FromStudy adapts a built-in case study to the TraceSource interface.
func FromStudy(s *CaseStudy) *StudySource { return &StudySource{study: s} }

// Label implements TraceSource.
func (s *StudySource) Label() string { return s.study.Name }

// Study returns the wrapped case study.
func (s *StudySource) Study() *CaseStudy { return s.study }

// Collect implements TraceSource by sweeping scheduler seeds until the
// corpus quotas are met (identical to the pre-facade collection loop:
// the corpus is bit-identical for any worker count).
func (s *StudySource) Collect(ctx context.Context, spec CollectSpec) (*Traces, error) {
	rc := casestudy.CollectConfig{
		Successes: spec.Successes, Failures: spec.Failures,
		SeedCap: spec.SeedCap, Workers: spec.Workers,
		OnCollect: spec.observeCollect(),
	}
	logs, failSeeds, err := casestudy.Collect(ctx, s.study, rc)
	if err != nil {
		return nil, err
	}
	return studyTraces(s.study, logs, failSeeds), nil
}

// studyTraces attaches a case study's program, failure signature, step
// budget, extraction configuration and labels to a corpus in log form.
func studyTraces(st *CaseStudy, logs *trace.LogSet, failSeeds []int64) *Traces {
	return &Traces{
		logs:        logs,
		FailSeeds:   failSeeds,
		Program:     st.Program,
		Config:      st.Config(),
		FailureSig:  st.FailureSig,
		MaxSteps:    st.MaxSteps,
		Source:      st.Name,
		Issue:       st.Issue,
		Description: st.Description,
	}
}

// ---- Arbitrary-program source ----

// ProgramSource collects traces by sweeping scheduler seeds over any
// simulated program — the facade's front door for user-defined
// workloads.
type ProgramSource struct {
	// Program is the application under debugging.
	Program *Program
	// FailureSig restricts collected failures to one signature
	// ("" = any failure).
	FailureSig string
	// MaxSteps bounds each execution (0 = simulator default).
	MaxSteps int
	// Config overrides the extraction configuration. Nil derives it
	// from the program's SideEffectFree annotations with the standard
	// duration margin, like the built-in case studies.
	Config *ExtractConfig
}

// FromProgram adapts a simulated program to the TraceSource interface.
// Optional fields (failure signature, extraction config) are set on the
// returned source.
func FromProgram(p *Program) *ProgramSource { return &ProgramSource{Program: p} }

// Label implements TraceSource.
func (s *ProgramSource) Label() string { return s.Program.Name }

// config resolves the extraction configuration.
func (s *ProgramSource) config() ExtractConfig {
	if s.Config != nil {
		return *s.Config
	}
	st := s.asStudy()
	return st.Config()
}

// asStudy wraps the program in an anonymous case study so the shared
// quota-sweep collector applies.
func (s *ProgramSource) asStudy() *casestudy.Study {
	return &casestudy.Study{
		Name:       s.Program.Name,
		Program:    s.Program,
		FailureSig: s.FailureSig,
		MaxSteps:   s.MaxSteps,
	}
}

// Collect implements TraceSource.
func (s *ProgramSource) Collect(ctx context.Context, spec CollectSpec) (*Traces, error) {
	if s.Program == nil {
		return nil, fmt.Errorf("aid: ProgramSource has no program")
	}
	if err := s.Program.Validate(); err != nil {
		return nil, err
	}
	rc := casestudy.CollectConfig{
		Successes: spec.Successes, Failures: spec.Failures,
		SeedCap: spec.SeedCap, Workers: spec.Workers,
		OnCollect: spec.observeCollect(),
	}
	logs, failSeeds, err := casestudy.Collect(ctx, s.asStudy(), rc)
	if err != nil {
		return nil, err
	}
	return &Traces{
		logs:       logs,
		FailSeeds:  failSeeds,
		Program:    s.Program,
		Config:     s.config(),
		FailureSig: s.FailureSig,
		MaxSteps:   s.MaxSteps,
		Source:     s.Program.Name,
	}, nil
}

// ---- JSON-lines corpus source (offline debugging) ----

// TraceFileSource loads a JSON-lines trace corpus saved by WriteTraces
// (or cmd/aid's -save-traces), making offline debugging first-class:
// collect once on the test machine, debug anywhere. Attaching a
// Program (e.g. via ForStudy) re-enables the intervention phase; with
// no program the pipeline can still extract, rank and build the AC-DAG.
type TraceFileSource struct {
	// Path is the JSON-lines corpus file.
	Path string
	// Program optionally re-attaches the application for interventions.
	Program *Program
	// FailureSig scopes the failure group ("" = any failure).
	FailureSig string
	// MaxSteps bounds re-executions (0 = simulator default).
	MaxSteps int
	// Config overrides the extraction configuration. Nil derives it
	// from the attached program's annotations (or defaults when no
	// program is attached).
	Config *ExtractConfig

	// study, when attached via ForStudy, labels reports with the
	// study's metadata instead of the file path.
	study *CaseStudy
}

// FromTraceFile adapts a saved trace corpus to the TraceSource
// interface.
func FromTraceFile(path string) *TraceFileSource { return &TraceFileSource{Path: path} }

// ForStudy attaches a case study's program, failure signature, step
// budget and extraction configuration, closing the save/load loop for
// the built-in studies. It returns the source for chaining.
func (s *TraceFileSource) ForStudy(st *CaseStudy) *TraceFileSource {
	s.Program = st.Program
	s.FailureSig = st.FailureSig
	s.MaxSteps = st.MaxSteps
	cfg := st.Config()
	s.Config = &cfg
	s.study = st
	return s
}

// Label implements TraceSource.
func (s *TraceFileSource) Label() string { return s.Path }

// Collect implements TraceSource by loading the saved corpus, decoded
// straight into log form. The spec's quotas are ignored — the file is
// the corpus; FailSeeds are recovered from the stored executions in
// file order, so a pipeline over a saved corpus replays exactly the
// seeds a live collection would have.
func (s *TraceFileSource) Collect(ctx context.Context, spec CollectSpec) (*Traces, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	logs, err := trace.ReadFile(s.Path)
	if err != nil {
		return nil, err
	}
	// An empty corpus is a bad input, not a pipeline state: fail here
	// with the file named instead of letting statistical debugging or
	// the AC-DAG builder report a confusing zero-trace condition (or
	// divide by zero) much later.
	if len(logs.Runs) == 0 {
		return nil, fmt.Errorf("aid: trace file %s contains no executions (empty or whitespace-only corpus)", s.Path)
	}
	cfg := ExtractConfig{DurationMargin: 4}
	if s.Config != nil {
		cfg = *s.Config
	} else if s.Program != nil {
		cfg = predicate.Config{
			SideEffectFree: func(method string) bool {
				f, ok := s.Program.Funcs[method]
				return ok && f.SideEffectFree
			},
			DurationMargin: 4,
		}
	}
	tr := &Traces{
		logs:       logs,
		FailSeeds:  failSeeds(logs, s.FailureSig),
		Program:    s.Program,
		Config:     cfg,
		FailureSig: s.FailureSig,
		MaxSteps:   s.MaxSteps,
		Source:     s.Path,
	}
	if s.study != nil {
		tr.Source = s.study.Name
		tr.Issue = s.study.Issue
		tr.Description = s.study.Description
	}
	if spec.Observer != nil {
		succ, fail := logs.Counts()
		spec.Observer.OnEvent(CollectProgress{Successes: succ, Failures: fail})
	}
	return tr, nil
}

// ---- Stored-corpus source (the daemon's corpora) ----

// StoredCorpusSource hands the pipeline a corpus already in log form,
// as the daemon stores an uploaded trace file: decoded once
// (trace.DecodeLogs), then shared by every session over it. It is
// TraceFileSource.ForStudy over that file without reading it again, so
// its report is byte-identical to the file's.
type StoredCorpusSource struct {
	logs  *trace.LogSet
	study *CaseStudy
}

// FromStoredCorpus adapts a corpus in log form, with a case study's
// program, failure signature, step budget, extraction configuration and
// labels attached, to the TraceSource interface. Pipelines read logs
// and never modify it.
func FromStoredCorpus(logs *trace.LogSet, st *CaseStudy) *StoredCorpusSource {
	return &StoredCorpusSource{logs: logs, study: st}
}

// Label implements TraceSource.
func (s *StoredCorpusSource) Label() string { return s.study.Name }

// Collect implements TraceSource as TraceFileSource.Collect does over a
// file: the spec's quotas are ignored, and FailSeeds are recovered from
// the stored runs in storage order.
func (s *StoredCorpusSource) Collect(ctx context.Context, spec CollectSpec) (*Traces, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Observer != nil {
		succ, fail := s.logs.Counts()
		spec.Observer.OnEvent(CollectProgress{Successes: succ, Failures: fail})
	}
	return studyTraces(s.study, s.logs, failSeeds(s.logs, s.study.FailureSig)), nil
}

// failSeeds returns the seeds of a stored corpus's failures of
// signature sig ("" = any), in storage order.
func failSeeds(logs *trace.LogSet, sig string) []int64 {
	var seeds []int64
	for i := range logs.Runs {
		r := &logs.Runs[i]
		if r.Failed() && (sig == "" || r.FailureSig == sig) {
			seeds = append(seeds, r.Seed)
		}
	}
	return seeds
}

// WriteTraces saves a collected corpus as JSON lines — the format
// FromTraceFile loads and cmd/aid's -save-traces emits: the logs the
// source kept, or else Set, which the pipeline reads the same way. The
// round trip is lossless: a pipeline over the reloaded corpus produces
// the same report as one over the live corpus.
func WriteTraces(path string, tr *Traces) error {
	if tr == nil || tr.Set == nil && tr.logs == nil {
		return fmt.Errorf("aid: no traces to write")
	}
	logs := tr.logs
	if logs == nil {
		logs = trace.Intern(tr.Set)
	}
	return trace.WriteFile(path, logs)
}
