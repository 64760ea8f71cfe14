// Command rpsim runs a deterministic workload simulation and validates the
// serving invariants continuously (see internal/sim for the invariant
// list). The scenario picks the target its clients drive over loopback
// HTTP: one in-process publication server, or — for the fleet scenarios —
// a replicated fleet behind its router, whose replicas run in this process
// (fleet) or as spawned child processes of this binary (fleet-ingest).
//
// Usage:
//
//	rpsim [-scenario steady-read|churn|ingest|adversary|fleet|fleet-ingest|budget|mixed]
//	      [-seed N] [-clients N] [-steps N] [-think D] [-pipeline-workers N] [-list]
//
// The deterministic JSON summary goes to stdout — two runs with the same
// scenario, seed, and scale print byte-identical summaries — and the
// human-readable report (throughput, per-operation latency quantiles) goes
// to stderr. The exit status is 1 when any invariant was violated, so a
// single `go run ./cmd/rpsim -scenario mixed -seed 1` is a full serving
// regression check.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/reconpriv/reconpriv/internal/fleet"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/sim"
)

func main() {
	// When re-executed as a replica child of a cross-process fleet
	// scenario, serve and never return.
	fleet.ChildServeMain()

	var (
		scenario = flag.String("scenario", "mixed", "workload scenario (see -list)")
		seed     = flag.Int64("seed", 1, "run seed; fixes every random draw")
		clients  = flag.Int("clients", 0, "concurrent simulated clients (0 = scenario default)")
		steps    = flag.Int("steps", 0, "operations per client (0 = scenario default)")
		think    = flag.Duration("think", 0, "maximum per-step client pause (arrival schedule; 0 = none)")
		workers  = flag.Int("pipeline-workers", 0, "server cold-path parallelism (0 = GOMAXPROCS)")
		list     = flag.Bool("list", false, "list scenarios and exit")
	)
	flag.Parse()

	if *list {
		for _, sc := range sim.Scenarios() {
			fmt.Printf("%-12s %s\n", sc.Name, sc.Description)
		}
		return
	}

	sc, err := sim.Lookup(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpsim: %v\n", err)
		os.Exit(2)
	}
	start := time.Now()
	res, err := sim.Run(sim.Options{
		Scenario: sc,
		Seed:     *seed,
		Clients:  *clients,
		Steps:    *steps,
		Think:    *think,
		Config:   serve.Config{PipelineWorkers: *workers},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpsim: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "%s\n(total %.2fs including setup)\n", res.Report(), time.Since(start).Seconds())
	out, err := res.SummaryJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpsim: %v\n", err)
		os.Exit(2)
	}
	os.Stdout.Write(append(out, '\n'))
	if res.Summary.Invariants.Violations > 0 {
		os.Exit(1)
	}
}
