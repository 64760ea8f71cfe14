// Command perfbench is the repository's end-to-end benchmark. It builds
// rpserve and rpfleet from the checkout it runs in, launches them as child
// processes, drives them over loopback sockets from this one process with a
// closed loop on one connection, checks every answer against an in-process
// reference built from the same publish request, and prints the metrics
// BENCHMARK.json names. Each run launches its server five times from
// scratch; setup_s is the median time from launch to the first checked
// answer.
//
// Usage (from the root of a checkout):
//
//	bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - paper-batch: one rpserve holding the CENSUS 300K SPS publication; one
//     connection sends fresh Section 6.1 batches of 5,000 count queries as
//     binary /query frames.
//   - fleet-read: rpfleet (3 in-process replicas, rf 2) over several small
//     read-only publications; one connection sends small /query and
//     /reconstruct requests, alternating JSON and binary, for a Zipf-skewed
//     client population.
//   - fleet-ingest: rpfleet -procs (3 spawned replicas, rf 2) over one ADULT
//     incremental publication; one connection interleaves binary /insert
//     frames of 50 records with binary reads of 300 queries, 4 inserts to
//     every 3 reads.
//
// The two fleet workloads run this process and the fleet's processes on
// one CPU, so that handing a request across a socket is a local switch
// rather than a wake-up of an idle virtual CPU. Rates (queries_per_s,
// requests_per_s, records_per_s) are medians over one-second windows of
// the timed phase.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// runs the same load untraced and then traced: around each request it
// records a root span and replays the request's stages on an in-process
// copy of the publication through the layers' exported functions, and it
// reports per-layer self times and counters plus the tracing overhead
// (traced minus untraced end to end). Spans are written to
// .bench_build/perfbench/ at exit.
//
// A run prints a human-readable report, then as its last line one JSON
// object with the keys correct, attempted, failed and metrics. A wrong
// answer ends the run with a non-zero exit and no numbers. layers.json maps
// each per-layer metric to the end-to-end metric it should move.
//
// The benchmark is a module of its own; its tests run with
//
//	go -C perfbench test ./...
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload receives.
type env struct {
	root    string // checkout root
	out     string // scratch directory for logs and spans
	rpserve string
	rpfleet string
	seed    int64
	seconds time.Duration // one load phase; a traced run has two
	trace   bool
}

// outcome is what a workload measured.
type outcome struct {
	setups   []float64 // seconds, one per set-up
	tally    *tally    // set-up requests and the untraced load
	traced   *tally    // traced load (trace mode only)
	rssMiB   float64
	layers   map[string]float64 // per-layer metrics (trace mode only)
	spans    []span
	cold     *tracer  // cold-path replay (trace mode only)
	flags    []string // server flags, for the run record
	pinned   string   // CPU pinning of the load and servers, for the run record
	checkLog []string // the output checks that passed
}

func newOutcome() *outcome {
	return &outcome{tally: newTally(), layers: map[string]float64{}}
}

// workloads maps names to the functions that run them.
var workloads = map[string]func(*env) (*outcome, error){
	"paper-batch":  runPaperBatch,
	"fleet-read":   runFleetRead,
	"fleet-ingest": runFleetIngest,
}

// setups is how many times a run launches its server from scratch; setup_s
// is their median.
const setups = 5

// warmup is the untimed lead-in of every load phase.
const warmup = time.Second

// rateWindow is the nominal window over which the timed phase's rates are
// taken: the phase is cut into as many equal windows of at least this
// length as fit, or into one when it is shorter.
const rateWindow = time.Second

func main() {
	var (
		root     = flag.String("root", ".", "checkout root holding go.mod and cmd/")
		workload = flag.String("workload", "", "paper-batch, fleet-read, fleet-ingest, or all to run each in turn")
		seed     = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds  = flag.Int("seconds", 10, "timed phase length")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	if _, ok := workloads[names[0]]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags: --workload must be all or one of %s, --seconds >= 1, --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(1)
	}()
	for _, name := range names {
		res, err := benchmark(workloads[name], *root, name, *seed, *seconds, *trace == 1)
		stopAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmark builds the servers, runs one workload and turns its outcome
// into the report and the result line.
func benchmark(run func(*env) (*outcome, error), root, name string, seed int64, seconds int, trace bool) (*result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: root, out: filepath.Join(root, ".bench_build", "perfbench"), seed: seed,
		seconds: time.Duration(seconds) * time.Second, trace: trace}
	if trace {
		// The untraced and the traced phase share the run's measuring time.
		e.seconds /= 2
	}
	bin := filepath.Join(root, ".bench_build", "bin")
	for _, d := range []string{e.out, bin} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if e.rpserve, e.rpfleet, err = buildServers(root, bin); err != nil {
		return nil, err
	}
	o, err := run(e)
	if err != nil {
		return nil, err
	}

	fmt.Printf("perfbench %s  seed %d  trace %v\n", name, seed, trace)
	fmt.Printf("  run record: commit %s  nproc %d  GOMAXPROCS %d  %s  server flags %q\n",
		commit(root), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.Join(o.flags, " "))
	if o.pinned != "" {
		fmt.Printf("  pinned: %s\n", o.pinned)
	}
	for _, c := range o.checkLog {
		fmt.Printf("  check passed: %s\n", c)
	}
	fmt.Print(o.tally.report())
	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = o.tally.timedTotals()
	e2e := endToEndValues(o)
	printMetrics("end-to-end", append(endToEnd, extraEndToEnd...), e2e)
	if !trace {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{e2e[m.Name], m.Unit}
		}
		return res, nil
	}
	fmt.Print("  traced load:\n" + o.traced.report())
	tr := endToEndValues(&outcome{setups: o.setups, tally: o.traced, rssMiB: o.rssMiB})
	o.layers["trace.overhead_query_p50_ms"] = tr["query_p50_ms"] - e2e["query_p50_ms"]
	o.layers["trace.overhead_requests_per_s"] = tr["requests_per_s"] - e2e["requests_per_s"]
	printMetrics("traced end-to-end", endToEnd[1:], tr)
	printMetrics("per-layer", perLayer(), o.layers)
	for _, m := range perLayer() {
		res.Metrics[m.Name] = metric{o.layers[m.Name], m.Unit}
	}
	path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := writeSpans(path, o.spans); err != nil {
		return nil, err
	}
	fmt.Printf("  %d spans written to %s\n", len(o.spans), path)
	return res, nil
}

// endToEndValues computes the end-to-end metrics of one load phase.
func endToEndValues(o *outcome) map[string]float64 {
	t := o.tally
	out := map[string]float64{"server_rss_mib": o.rssMiB}
	out["setup_s"] = median(append([]float64(nil), o.setups...))
	// Rates are the medians of the timed phase's rates over windows of
	// about a second, so that a slow spell of the shared host covering less
	// than half the phase does not move them. Answered reads only: on
	// fleet-ingest the inserts between them are not requests_per_s's, they
	// show as records_per_s.
	reqs, queries, records := t.rates(max(1, int(t.lastEnd.Sub(t.start)/rateWindow)))
	out["requests_per_s"] = median(reqs)
	out["queries_per_s"] = median(queries)
	if t.units[opInsert] > 0 {
		out["records_per_s"] = median(records)
	}
	for _, op := range []string{opQuery, opReconstruct, opInsert} {
		if len(t.latMS[op]) == 0 {
			continue
		}
		s := summarize(append([]float64(nil), t.latMS[op]...))
		prefix := map[string]string{opQuery: "query", opReconstruct: "recon", opInsert: "insert"}[op]
		out[prefix+"_p50_ms"] = s.P50
		out[prefix+"_p99_ms"] = s.Tail
		out[prefix+"_n"] = float64(s.N)
		out[prefix+"_tail_pct"] = s.TailPct
	}
	att, failed := t.timedTotals()
	out["failed_frac"] = float64(failed) / float64(att)
	return out
}

// printMetrics prints the metrics of defs that vals holds, by name with
// their unit.
func printMetrics(title string, defs []metricDef, vals map[string]float64) {
	fmt.Printf("  %s:\n", title)
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		note := ""
		if op, ok := strings.CutSuffix(m.Name, "_p99_ms"); ok {
			note = fmt.Sprintf("  (p%g of %d samples; the sample supports up to p%g)", vals[op+"_tail_pct"], int(vals[op+"_n"]), tailPercentile(int(vals[op+"_n"])))
		}
		fmt.Printf("    %-34s %14.4f %s%s\n", m.Name, v, m.Unit, note)
	}
}

// commit identifies the code under test: the git commit (marked -dirty
// with uncommitted changes) when the checkout is a repository, otherwise a
// digest of the Go sources and go.mod files.
func commit(root string) string {
	if out, err := exec.Command("git", "-C", root, "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
