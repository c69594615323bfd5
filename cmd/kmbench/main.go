// Command kmbench runs the paper-reproduction experiment harness
// (E1..E13) and prints the result tables, optionally writing CSVs.
//
// Usage:
//
//	kmbench [-quick] [-exp E1,E6] [-seed 42] [-trials 3] [-csv dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kmgraph/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps")
	expList := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	seed := flag.Int64("seed", 42, "base seed")
	trials := flag.Int("trials", 0, "seeds per configuration (0 = default)")
	csvDir := flag.String("csv", "", "also write tables as CSV files to this directory")
	flag.Parse()

	var exps []experiments.Experiment
	if *expList == "" {
		exps = experiments.All()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			exps = append(exps, e)
		}
	}

	params := experiments.Params{Quick: *quick, Seed: *seed, Trials: *trials}
	for _, e := range exps {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    reproduces: %s\n\n", e.PaperRef)
		start := time.Now()
		tables, err := e.Run(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		for i, tb := range tables {
			fmt.Println(tb.Render())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				name := fmt.Sprintf("%s_%d.csv", e.ID, i)
				if err := os.WriteFile(filepath.Join(*csvDir, name), []byte(tb.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
