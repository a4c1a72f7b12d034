// Command ttcrun executes one tool on one query over one dataset and prints
// the per-phase timings and the result of every step — the single-run
// counterpart of ttcbench, useful for inspecting behaviour and results.
//
// The dataset comes from a CSV directory written by ttcgen (-data) or is
// generated on the fly (-sf/-seed).
//
// Usage:
//
//	ttcrun -query Q2 -tool incremental -sf 4
//	ttcrun -query Q1 -tool nmf-batch -data data/sf8 -v
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/internal/grb"
	"repro/internal/harness"
	"repro/internal/model"
)

// validateFlags rejects nonsense flag values with a clear message; main
// maps the error to exit status 2. The factory registry lives in
// harness.Factories, shared with ttcvalidate and the Fig. 5 lineup.
func validateFlags(query, tool, data string, sf int, threads int) error {
	fs := harness.Factories(query)
	if fs == nil {
		return fmt.Errorf("unknown query %q (want Q1 or Q2)", query)
	}
	if _, ok := fs[tool]; !ok {
		return fmt.Errorf("unknown tool %q for %s", tool, query)
	}
	if data == "" && sf < 1 {
		return fmt.Errorf("-sf must be >= 1 (got %d)", sf)
	}
	if threads < 1 {
		return fmt.Errorf("-threads must be >= 1 (got %d)", threads)
	}
	return nil
}

func main() {
	var (
		query   = flag.String("query", "Q1", "query to run: Q1 or Q2")
		tool    = flag.String("tool", "incremental", "tool: batch, incremental, incremental-cc (Q2), nmf-batch, nmf-incremental")
		data    = flag.String("data", "", "dataset directory (from ttcgen); empty generates")
		sf      = flag.Int("sf", 1, "scale factor when generating")
		seed    = flag.Int64("seed", 2018, "generator seed when generating")
		threads = flag.Int("threads", 1, "GraphBLAS thread count")
		verbose = flag.Bool("v", false, "print the result of every step")
	)
	flag.Parse()

	if err := validateFlags(*query, *tool, *data, *sf, *threads); err != nil {
		fmt.Fprintln(os.Stderr, "ttcrun:", err)
		os.Exit(2)
	}
	f := harness.Factories(*query)[*tool]

	var d *model.Dataset
	if *data != "" {
		var err error
		d, err = model.ReadDataset(*data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttcrun:", err)
			os.Exit(1)
		}
	} else {
		d = datagen.Generate(datagen.Config{ScaleFactor: *sf, Seed: *seed})
	}

	grb.SetThreads(*threads)
	m, err := harness.RunOnce(f, d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcrun:", err)
		os.Exit(1)
	}
	fmt.Printf("%s %s (%d threads): %s\n", *query, *tool, *threads, datagen.Describe(d))
	fmt.Printf("  load:              %v\n", m.Load)
	fmt.Printf("  initial:           %v\n", m.Initial)
	fmt.Printf("  update+reeval sum: %v over %d change sets\n", m.UpdateTotal(), len(m.Updates))
	if *verbose {
		fmt.Printf("  initial result:    %s\n", m.Results[0])
		for i, r := range m.Results[1:] {
			fmt.Printf("  after change %02d:   %s\n", i+1, r)
		}
	} else {
		fmt.Printf("  final result:      %s\n", m.Results[len(m.Results)-1])
	}
}
