// Command rpfleet serves a replicated publication fleet: N replicas behind
// a router that places publications by rendezvous hashing, fails queries
// over between holders, retries with capped backoff, and charges client
// exposure exactly once per logical request regardless of retries (see
// internal/fleet for the design).
//
// Replicas run in one of three transports:
//
//   - in-process (default): replicas are goroutine-served servers inside
//     this process — zero setup, the simulation-scale mode.
//   - -procs: each replica is a spawned child process of this binary,
//     reached over real loopback sockets. A replica crash is a real process
//     exit; the router detects it through transport failures, ejects the
//     replica, and a restart respawns the child and deterministically
//     replays its state (checkpoint + mutation-log tail).
//   - -peers addr,addr,...: replicas are externally managed rpserve
//     processes the router attaches to; the peer list overrides -replicas.
//
// Usage:
//
//	rpfleet [-addr :8080] [-replicas 3] [-rf 2] [-timeout 2s]
//	        [-procs | -peers host:port,host:port]
//	        [-checkpoint-log 64] [-build-timeout 2m]
//	        [-eject-after 3] [-max-inflight 64] [-verify-every 16]
//	        [-budget N] [-budget-soft 0.85] [-budget-trusted id,id]
//	        [-preload medical:5000,census:300000]
//
// -preload publishes each dataset[:size] across the fleet before serving,
// so the first query never pays a build. The router serves /query,
// /reconstruct, /audit, /publish, /refresh, /insert, /publications,
// /healthz and /statsz. /query, /reconstruct, /audit and /insert relay a
// holder's response in rpserve's shape (the router patches the ledger of
// query and reconstruct responses). /publish, /refresh and /publications
// answer with the router's placement view of each publication — id,
// holders, generation, log_len, checkpointed — not rpserve's publication
// view, so they carry no status, meta or error. Requests may carry an
// X-Idempotency-Key header to make retries safe, and /statsz reports
// router counters (failovers, ejections, shed load, checkpoints) instead
// of per-replica internals. Inserts fan out to every live holder
// and append to the publication's mutation log; when the log reaches
// -checkpoint-log entries it is folded into a stored snapshot, so restart
// replay cost stays bounded under sustained ingest. Replicas run with
// budget enforcement off; the router's own budget precheck issues the
// typed budget_exhausted 429 with its Retry-After header before any
// replica is touched, so a rejected request is never retried and charges
// no exposure.
//
// A minimal cross-process session:
//
//	rpfleet -procs -replicas 3 -rf 2 -preload medical:5000 &
//	curl -s localhost:8080/publications
//	curl -s -X POST localhost:8080/query -H 'X-Idempotency-Key: demo-1' -d '{
//	  "id": "<id from /publications>",
//	  "queries": [{"conds": [{"attr": "Job", "value": "Engineer"}], "sa": "Flu"}]
//	}'
//	curl -s localhost:8080/statsz
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/reconpriv/reconpriv/internal/fleet"
	"github.com/reconpriv/reconpriv/internal/serve"
)

func main() {
	// When re-executed as a replica child (-procs), serve and never return.
	fleet.ChildServeMain()

	var (
		addr        = flag.String("addr", ":8080", "listen address")
		replicas    = flag.Int("replicas", 3, "replica count")
		rf          = flag.Int("rf", 2, "replication factor: holders per publication (clamped to -replicas)")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-attempt replica deadline")
		attempts    = flag.Int("attempts", 5, "attempt budget per logical request")
		ejectAfter  = flag.Int("eject-after", 3, "consecutive transport failures before a replica is ejected")
		maxInflight = flag.Int64("max-inflight", 64, "concurrent requests per replica before load shedding")
		verifyEvery = flag.Int("verify-every", 16, "sample 1-in-N answers for comparison of their answer bytes against a second replica (negative disables)")
		pipeWorkers = flag.Int("pipeline-workers", 0, "per-replica cold-path preprocessing workers (0 = GOMAXPROCS)")
		preload     = flag.String("preload", "", "comma-separated dataset[:size] list to publish before serving")

		procs        = flag.Bool("procs", false, "spawn each replica as a child process reached over real sockets")
		peers        = flag.String("peers", "", "comma-separated replica base addresses to attach to (overrides -replicas; mutually exclusive with -procs)")
		checkpointMu = flag.Int("checkpoint-log", 64, "mutation-log length at which a publication is checkpointed and the log truncated (negative disables)")
		buildTimeout = flag.Duration("build-timeout", 2*time.Minute, "deadline for control-plane operations (publish, refresh, snapshot, restart replay)")

		budgetQuota   = flag.Int64("budget", 0, "per-client exposure budget per window on every replica (0 = calibrated default, -1 disables)")
		budgetWindow  = flag.Duration("budget-window", 0, "sliding budget window (0 = 1h)")
		budgetSoft    = flag.Float64("budget-soft", 0, "quota fraction past which reconstructs are shed first (0 = 0.85, -1 disables)")
		budgetTrusted = flag.String("budget-trusted", "", "comma-separated client ids in the trusted (higher-quota) tier")
		trustedQuota  = flag.Int64("budget-trusted-quota", 0, "budget for trusted-tier clients (0 = 4x the default quota)")
	)
	flag.Parse()

	cfg := fleet.Config{
		Replicas:          *replicas,
		ReplicationFactor: *rf,
		EjectAfter:        *ejectAfter,
		MaxInFlight:       *maxInflight,
		MaxAttempts:       *attempts,
		Timeout:           *timeout,
		BuildTimeout:      *buildTimeout,
		VerifyEvery:       *verifyEvery,
		CheckpointLog:     *checkpointMu,
		Serve: serve.Config{
			PipelineWorkers:    *pipeWorkers,
			BudgetQuota:        *budgetQuota,
			BudgetWindow:       *budgetWindow,
			BudgetSoftFraction: *budgetSoft,
			BudgetTrusted:      splitTrusted(*budgetTrusted),
			BudgetTrustedQuota: *trustedQuota,
		},
	}

	var f *fleet.Fleet
	var err error
	switch {
	case *procs && *peers != "":
		log.Fatal("rpfleet: -procs and -peers are mutually exclusive")
	case *procs:
		f, err = fleet.NewProcs(cfg)
	case *peers != "":
		f, err = fleet.NewPeers(cfg, splitTrusted(*peers))
	default:
		f = fleet.New(cfg)
	}
	if err != nil {
		log.Fatalf("rpfleet: %v", err)
	}
	defer f.Close()

	if *preload != "" {
		for _, spec := range strings.Split(*preload, ",") {
			req, err := parsePreload(strings.TrimSpace(spec))
			if err != nil {
				log.Fatalf("rpfleet: -preload %q: %v", spec, err)
			}
			start := time.Now()
			id, err := f.Publish(req)
			if err != nil {
				log.Fatalf("rpfleet: preload %q: %v", spec, err)
			}
			log.Printf("rpfleet: preloaded %s as %s on replicas %v in %v",
				spec, id, f.Holders(id), time.Since(start).Round(time.Millisecond))
		}
	}

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           f.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("rpfleet: %d replicas (rf %d, %s) serving on %s",
		f.Config().Replicas, f.Config().ReplicationFactor, f.Transport(), *addr)
	log.Fatal(httpServer.ListenAndServe())
}

// splitTrusted turns a comma-separated list into trimmed non-empty entries.
func splitTrusted(s string) []string {
	var ids []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// parsePreload turns "census:300000" into a publish request with default
// parameters.
func parsePreload(spec string) (serve.PublishRequest, error) {
	name, sizeStr, hasSize := strings.Cut(spec, ":")
	req := serve.PublishRequest{Dataset: name}
	if hasSize {
		n, err := strconv.Atoi(sizeStr)
		if err != nil {
			return req, fmt.Errorf("bad size %q", sizeStr)
		}
		req.Size = n
	}
	return req, nil
}
