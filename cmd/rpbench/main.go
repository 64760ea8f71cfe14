// Command rpbench regenerates every table and figure of the paper's
// evaluation from the built-in synthetic data sets.
//
// Usage:
//
//	rpbench [-exp all|table1,table2,table4,table5,fig1,fig1b,fig2,fig3,fig4,fig5,
//	             audit,budget,outputvs,ablations]
//	        [-runs N] [-trials N] [-census-size N] [-seed N] [-json DIR]
//
// Each experiment prints the same rows/series as the corresponding artifact
// in the paper; EXPERIMENTS.md records the paper-vs-measured comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/reconpriv/reconpriv/internal/experiments"
)

func main() {
	var (
		runs       = flag.Int("runs", experiments.DefaultRuns, "independent perturbation runs per error point")
		trials     = flag.Int("trials", 10, "noise trials for Table 1")
		censusSize = flag.Int("census-size", experiments.DefaultCensusSize, "default CENSUS sample size")
		seed       = flag.Int64("seed", experiments.RunSeed, "seed for randomized experiments")
		jsonDir    = flag.String("json", "", "also write each result as BENCH_<name>.json in this directory")
	)
	table := []struct {
		name string
		run  func() (fmt.Stringer, error)
	}{
		{"table1", func() (fmt.Stringer, error) { return experiments.RunTable1(*trials, *seed) }},
		{"table2", func() (fmt.Stringer, error) { return experiments.RunTable2(), nil }},
		{"table4", func() (fmt.Stringer, error) { return experiments.RunTable4() }},
		{"table5", func() (fmt.Stringer, error) { return experiments.RunTable5(*censusSize) }},
		{"fig1", func() (fmt.Stringer, error) { return experiments.RunFig1("ADULT") }},
		{"fig1b", func() (fmt.Stringer, error) { return experiments.RunFig1("CENSUS") }},
		{"fig2", func() (fmt.Stringer, error) { return sweepAll(true, false, *censusSize, 0) }},
		{"fig3", func() (fmt.Stringer, error) { return sweepAll(true, true, *censusSize, *runs) }},
		{"fig4", func() (fmt.Stringer, error) { return sweepAll(false, false, *censusSize, 0) }},
		{"fig5", func() (fmt.Stringer, error) { return sweepAll(false, true, *censusSize, *runs) }},
		{"audit", func() (fmt.Stringer, error) { return runAudits(*censusSize, *seed) }},
		{"budget", func() (fmt.Stringer, error) { return experiments.RunBudgetBench(0, *seed) }},
		{"outputvs", func() (fmt.Stringer, error) { return runOutputVs(*censusSize, *runs) }},
		{"ablations", func() (fmt.Stringer, error) { return runAblations(*censusSize, *runs, *seed) }},
	}
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(names, ",")+", or all")
	flag.Parse()
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rpbench: %v\n", err)
			os.Exit(1)
		}
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ran := 0
	for _, e := range table {
		if !all && !want[e.name] {
			continue
		}
		ran++
		start := time.Now()
		res, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (%.2fs) ===\n%s\n", e.name, time.Since(start).Seconds(), res)
		if *jsonDir != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "rpbench: %s: marshal: %v\n", e.name, err)
				os.Exit(1)
			}
			path := filepath.Join(*jsonDir, "BENCH_"+e.name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "rpbench: %s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rpbench: no experiment matched %q\n", *exp)
		os.Exit(2)
	}
}

// multi concatenates sub-results.
type multi []fmt.Stringer

func (m multi) String() string {
	parts := make([]string, len(m))
	for i, s := range m {
		parts[i] = s.String()
	}
	return strings.Join(parts, "\n")
}

// sweepAll runs the three (or four, for CENSUS) panels of a violation or
// error figure.
func sweepAll(adult, errors bool, censusSize, runs int) (fmt.Stringer, error) {
	vars := []experiments.SweepVar{experiments.SweepP, experiments.SweepLambda, experiments.SweepDelta}
	if !adult {
		vars = append(vars, experiments.SweepSize)
	}
	var out multi
	for _, v := range vars {
		if errors {
			res, err := experiments.RunErrorSweep(adult, v, censusSize, runs)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		} else {
			res, err := experiments.RunViolationSweep(adult, v, censusSize)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

func runAudits(censusSize int, seed int64) (fmt.Stringer, error) {
	var out multi
	a, err := experiments.RunAudit(true, censusSize, 2000, 10, seed)
	if err != nil {
		return nil, err
	}
	out = append(out, a)
	c, err := experiments.RunAudit(false, censusSize, 500, 10, seed)
	if err != nil {
		return nil, err
	}
	out = append(out, c)
	return out, nil
}

func runOutputVs(censusSize, runs int) (fmt.Stringer, error) {
	var out multi
	a, err := experiments.RunOutputVsData(true, censusSize, runs)
	if err != nil {
		return nil, err
	}
	out = append(out, a)
	c, err := experiments.RunOutputVsData(false, censusSize, runs)
	if err != nil {
		return nil, err
	}
	out = append(out, c)
	return out, nil
}

func runAblations(censusSize, runs int, seed int64) (fmt.Stringer, error) {
	var out multi
	b, err := experiments.RunBoundsAblation(censusSize)
	if err != nil {
		return nil, err
	}
	out = append(out, b)
	e, err := experiments.RunEstimatorAblation(runs, seed)
	if err != nil {
		return nil, err
	}
	out = append(out, e)
	ra, err := experiments.RunReducePAblation(true, censusSize, runs)
	if err != nil {
		return nil, err
	}
	out = append(out, ra)
	rc, err := experiments.RunReducePAblation(false, censusSize, runs)
	if err != nil {
		return nil, err
	}
	out = append(out, rc)
	return out, nil
}
