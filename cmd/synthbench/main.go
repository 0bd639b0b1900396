// Command synthbench regenerates the paper's Fig. 8: average and
// worst-case intervention counts for TAGT, AID-P-B, AID-P and AID over
// synthetically generated applications, sweeping the maximum thread
// count MAXt.
//
// Usage:
//
//	synthbench [-instances 500] [-seed 1] [-workers 0]
//	synthbench -flaky [-instances 500]   # noisy worlds, adaptive trial oracle
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"aid"
)

func main() {
	var (
		instances = flag.Int("instances", 500, "applications per MAXt setting (paper: 500)")
		seed      = flag.Int64("seed", 1, "base generation seed")
		flaky     = flag.Bool("flaky", false, "add runtime nondeterminism: 75% failure manifestation, 20% symptom flicker, adaptive trial oracle")
		workers   = flag.Int("workers", 0, "instance-pool width (0 = GOMAXPROCS); output is identical for any width")
	)
	flag.Parse()

	noise := aid.SyntheticNoise{}
	if *flaky {
		noise = aid.SyntheticNoise{ManifestProb: 0.75, SymptomNoise: 0.2}
	}
	var settings []*aid.SyntheticSetting
	for _, maxT := range aid.Figure8MaxTs() {
		s, err := aid.RunSyntheticSweep(context.Background(), maxT, *instances, *seed+int64(maxT)*1000003,
			aid.SyntheticSweepOptions{Noise: noise, Workers: *workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "synthbench:", err)
			os.Exit(1)
		}
		settings = append(settings, s)
	}
	mode := "deterministic worlds"
	if *flaky {
		mode = fmt.Sprintf("flaky worlds (adaptive trial oracle, %.0f%% manifestation, %.0f%% flicker)",
			noise.ManifestProb*100, noise.SymptomNoise*100)
	}
	fmt.Printf("Figure 8 — synthetic benchmark, %d applications per setting, %s\n\n", *instances, mode)

	fmt.Println("Average #interventions:")
	printTable(settings, func(c aid.SyntheticCell) string {
		return fmt.Sprintf("%8.1f", c.Average)
	})
	fmt.Println()
	fmt.Println("Worst-case #interventions:")
	printTable(settings, func(c aid.SyntheticCell) string {
		return fmt.Sprintf("%8d", c.WorstCase)
	})
	fmt.Println()
	fmt.Println("Average #predicates (grey dotted line) and causal-path length:")
	fmt.Printf("%-10s", "MAXt")
	for _, s := range settings {
		fmt.Printf("%8d", s.MaxT)
	}
	fmt.Printf("\n%-10s", "#preds")
	for _, s := range settings {
		fmt.Printf("%8.1f", s.AvgPreds)
	}
	fmt.Printf("\n%-10s", "D")
	for _, s := range settings {
		fmt.Printf("%8.1f", s.AvgD)
	}
	fmt.Println()
	if *flaky {
		fmt.Println("\nMisidentified instances (path deviated from ground truth under noise):")
		printTable(settings, func(c aid.SyntheticCell) string {
			for _, s := range settings {
				if s.MaxT == c.MaxT {
					return fmt.Sprintf("%8d", s.Misidentified[c.Approach])
				}
			}
			return fmt.Sprintf("%8d", 0)
		})
	}
}

func printTable(settings []*aid.SyntheticSetting, cell func(aid.SyntheticCell) string) {
	fmt.Printf("%-10s", "MAXt")
	for _, s := range settings {
		fmt.Printf("%8d", s.MaxT)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 10+8*len(settings)))
	for _, ap := range aid.Approaches() {
		fmt.Printf("%-10s", ap)
		for _, s := range settings {
			fmt.Print(cell(s.Cells[ap]))
		}
		fmt.Println()
	}
}
