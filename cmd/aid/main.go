// Command aid runs the full Adaptive Interventional Debugging pipeline
// on one of the built-in case studies: trace collection, statistical
// debugging, AC-DAG construction, causality-guided interventions, and
// the TAGT baseline, printing the root cause and the causal explanation.
//
// It is a thin shell over the public aid facade: a configured
// aid.Pipeline, an aid.TraceSource (live case study or a saved trace
// corpus via -load-traces), and the shared aid.Report formatting.
//
// Usage:
//
//	aid -case npgsql [-successes 50] [-failures 50] [-seed 1] [-rounds] [-effects] [-dot] [-json]
//	aid -case npgsql -sd -top 20        # SD ranking table, top 20 rows
//	aid -case npgsql -save-traces corpus.jsonl
//	aid -case npgsql -load-traces corpus.jsonl
//	aid serve -addr 127.0.0.1:8344 -data ./corpora   # multi-tenant daemon mode
//
// In daemon mode the binary hosts the multi-tenant debugging service
// (internal/service) over an HTTP/JSON-lines API: tenants ingest trace
// corpora, start discovery sessions, stream typed pipeline events, and
// fetch reports, under a bounded global session budget with fair
// admission control. See README "Daemon mode" and examples/daemon-client.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"aid"
)

func main() {
	// Daemon mode dispatches before flag parsing: `aid serve [flags]`
	// hosts the multi-tenant debugging service (internal/service) over
	// HTTP; everything else is the classic one-shot pipeline run.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	var (
		name       = flag.String("case", "npgsql", "case study: npgsql, kafka, cosmosdb, network, buildandtest, healthtelemetry")
		successes  = flag.Int("successes", 50, "successful executions to collect")
		failures   = flag.Int("failures", 50, "failed executions to collect")
		seed       = flag.Int64("seed", 1, "algorithm seed (tie-breaking)")
		replays    = flag.Int("replays", 5, "re-executions per intervention round")
		variant    = flag.String("variant", "aid", "algorithm variant: aid, aid-p, aid-p-b")
		compounds  = flag.Int("compounds", 0, "max compound (conjunction) predicates to materialize")
		rounds     = flag.Bool("rounds", false, "stream the intervention round log as it happens")
		effects    = flag.Bool("effects", false, "static effect analysis: derive side-effect-free methods and prune predicates from provably-pure regions")
		top        = flag.Int("top", 40, "rows of the -sd ranking table to print (0 = all)")
		dot        = flag.Bool("dot", false, "print the AC-DAG in Graphviz format and exit")
		sd         = flag.Bool("sd", false, "print the statistical-debugging ranking and exit (the SD baseline)")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON instead of text")
		saveTraces = flag.String("save-traces", "", "save the collected trace corpus to this file (JSON lines)")
		loadTraces = flag.String("load-traces", "", "load the trace corpus from this file instead of collecting")
		workers    = flag.Int("workers", 0, "execution-pool width (0 = GOMAXPROCS); output is identical for any width")
	)
	flag.Parse()

	study := aid.CaseStudyByName(*name)
	if study == nil {
		fmt.Fprintf(os.Stderr, "aid: unknown case study %q; available:", *name)
		for _, s := range aid.CaseStudies() {
			fmt.Fprintf(os.Stderr, " %s", s.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	opts := []aid.Option{
		aid.WithCorpusSize(*successes, *failures),
		aid.WithSeedCap(20000),
		aid.WithReplays(*replays),
		aid.WithSeed(*seed),
		aid.WithVariant(aid.Variant(*variant)),
		aid.WithCompounds(*compounds),
		aid.WithWorkers(*workers),
	}
	if *effects {
		opts = append(opts, aid.WithEffectAnalysis(true))
	}
	// The -rounds and -effects logs are observers over the pipeline's
	// event stream.
	if *rounds || *effects {
		wantRounds, wantEffects := *rounds, *effects
		opts = append(opts, aid.WithObserver(aid.ObserverFunc(func(e aid.Event) {
			switch e.(type) {
			case aid.RoundDone, aid.CauseConfirmed:
				if wantRounds {
					fmt.Fprintln(os.Stderr, e)
				}
			case aid.EffectsAnalyzed:
				if wantEffects {
					fmt.Fprintln(os.Stderr, e)
				}
			}
		})))
	}
	pipeline := aid.New(opts...)

	var source aid.TraceSource = aid.FromStudy(study)
	if *loadTraces != "" {
		source = aid.FromTraceFile(*loadTraces).ForStudy(study)
	}

	ctx := context.Background()
	if *dot || *sd || *saveTraces != "" {
		if err := inspect(ctx, pipeline, source, *dot, *sd, *top, *saveTraces); err != nil {
			fmt.Fprintln(os.Stderr, "aid:", err)
			os.Exit(1)
		}
		if *dot || *sd {
			return
		}
	}

	rep, err := pipeline.Run(ctx, source)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aid:", err)
		os.Exit(1)
	}

	if *jsonOut {
		out, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "aid:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}

	fmt.Print(rep.Format())
	fmt.Println()
	fmt.Println(rep.Narrative)
	if *rounds {
		fmt.Println("\nintervention rounds:")
		fmt.Print(rep.FormatRounds())
	}
}

// inspect runs the early pipeline stages only and prints/saves the
// requested views.
func inspect(ctx context.Context, pipeline *aid.Pipeline, source aid.TraceSource, dot, sd bool, top int, savePath string) error {
	traces, err := pipeline.Collect(ctx, source)
	if err != nil {
		return err
	}
	if savePath != "" {
		if err := aid.WriteTraces(savePath, traces); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved %d executions to %s\n", len(traces.Set.Executions), savePath)
	}
	corpus := pipeline.Extract(traces)
	ranking := pipeline.Rank(corpus)
	if sd {
		fmt.Printf("statistical debugging ranking for %s (%d predicates):\n\n",
			source.Label(), len(corpus.Preds))
		fmt.Print(ranking.Format(top))
		return nil
	}
	if dot {
		dag, _, err := pipeline.BuildDAG(corpus, ranking.Fully)
		if err != nil {
			return err
		}
		fmt.Print(dag.Dot())
	}
	return nil
}
