package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// OpTally counts issued operations (batches, not individual queries) per
// kind. Tallies derive purely from the client streams, so they are part of
// the deterministic summary.
type OpTally struct {
	Query       int64 `json:"query"`
	Insert      int64 `json:"insert"`
	Refresh     int64 `json:"refresh"`
	Reconstruct int64 `json:"reconstruct"`
	Audit       int64 `json:"audit"`
}

// InvariantSummary reports the invariant checker's verdict: how many checks
// ran, how many failed, and a bounded sample of failure messages.
type InvariantSummary struct {
	Checks     int64    `json:"checks"`
	Violations int64    `json:"violations"`
	Failures   []string `json:"failures,omitempty"`
}

// Summary is the machine-readable result of a run. Every field is a pure
// function of (scenario, seed, clients, steps), never of wall-clock time or
// request interleaving, so two runs with equal inputs marshal to identical
// bytes — the property TestSimScenarios pins and regression tooling diffs.
type Summary struct {
	Scenario       string `json:"scenario"`
	Seed           int64  `json:"seed"`
	Clients        int    `json:"clients"`
	StepsPerClient int    `json:"steps_per_client"`
	// Ops counts issued operation batches per kind; Queries and Subsets
	// count the individual queries and reconstruction subsets inside them.
	Ops     OpTally `json:"ops"`
	Queries int64   `json:"queries"`
	Subsets int64   `json:"reconstruction_subsets"`
	// RecordsInserted is the total record count streamed through /insert.
	RecordsInserted int64 `json:"records_inserted"`
	// IngestAppends is the delta-generation append count, present only for
	// refresh-free insert scenarios, where it is exactly one per insert
	// batch and therefore interleaving-independent. (The compaction counter
	// is deliberately absent: whether a background compaction wins its
	// install race is timing-dependent.)
	IngestAppends int64 `json:"ingest_appends,omitempty"`
	// ChargedQueries is the total exposure charged across all clients:
	// answered queries plus SADomain per reconstruction subset.
	ChargedQueries int64 `json:"charged_queries"`
	// AnswersDigest fingerprints every served answer, present only for
	// scenarios whose answers are interleaving-independent (no inserts or
	// refreshes). Per-client digests combine by XOR so the value does not
	// depend on goroutine scheduling.
	AnswersDigest string `json:"answers_digest,omitempty"`
	// Fleet is present for fleet scenarios: topology and chaos counts, all
	// schedule-independent (see FleetSummary).
	Fleet *FleetSummary `json:"fleet,omitempty"`
	// Budget is present for budget scenarios: identity population,
	// acceptance and rejection tallies, all deterministic because each
	// identity's admission sequence depends only on its own drawn history.
	Budget     *BudgetSummary   `json:"budget,omitempty"`
	Invariants InvariantSummary `json:"invariants"`
}

// BudgetSummary is the deterministic budget block of a budget-scenario
// summary: the enforced quotas, the zipf identity population, and how many
// operation batches were accepted and rejected (by reason).
type BudgetSummary struct {
	Quota        int64   `json:"quota"`
	SoftQuota    int64   `json:"soft_quota"`
	IdentityPool int     `json:"identity_pool_per_worker"`
	ZipfS        float64 `json:"zipf_s"`
	// Identities counts distinct identities that landed at least one
	// accepted charge; MaxIdentityCharged is the heaviest identity's total.
	Identities         int   `json:"identities_charged"`
	MaxIdentityCharged int64 `json:"max_identity_charged"`
	// AcceptedBatches counts accepted charged batches; the rejection
	// tallies split refused batches by the manager's reason.
	AcceptedBatches     int64 `json:"accepted_batches"`
	RejectedClientQuota int64 `json:"rejected_client_quota"`
	RejectedDegraded    int64 `json:"rejected_degraded"`
}

// OpTiming is one operation kind's wall-clock latency profile.
type OpTiming struct {
	Op     string  `json:"op"`
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
}

// Timing holds the wall-clock measurements of a run. It is reported next to
// the Summary, never inside it: timing is the one part of a simulation that
// legitimately differs between identically-seeded runs.
type Timing struct {
	WallMS         float64    `json:"wall_ms"`
	Requests       int64      `json:"requests"`
	RequestsPerSec float64    `json:"requests_per_second"`
	QueriesPerSec  float64    `json:"queries_per_second"`
	Ops            []OpTiming `json:"ops"`
	// Fleet is present for fleet scenarios: router counters whose values
	// depend on request interleaving (see FleetTiming).
	Fleet *FleetTiming `json:"fleet,omitempty"`
}

// Result bundles a run's deterministic summary with its timing.
type Result struct {
	Summary Summary `json:"summary"`
	Timing  Timing  `json:"timing"`
}

// SummaryJSON marshals the deterministic summary with stable indentation —
// the bytes rpsim writes to stdout and determinism tests compare.
func (r *Result) SummaryJSON() ([]byte, error) {
	return json.MarshalIndent(&r.Summary, "", "  ")
}

// Report renders the human-readable run report (tallies plus timing).
func (r *Result) Report() string {
	s := &r.Summary
	t := &r.Timing
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s seed %d: %d clients x %d steps, %.1f ms wall\n",
		s.Scenario, s.Seed, s.Clients, s.StepsPerClient, t.WallMS)
	fmt.Fprintf(&b, "ops: query %d (%d queries), insert %d (%d records), refresh %d, reconstruct %d (%d subsets), audit %d\n",
		s.Ops.Query, s.Queries, s.Ops.Insert, s.RecordsInserted, s.Ops.Refresh,
		s.Ops.Reconstruct, s.Subsets, s.Ops.Audit)
	fmt.Fprintf(&b, "throughput: %.0f requests/s, %.0f queries/s; exposure charged %d\n",
		t.RequestsPerSec, t.QueriesPerSec, s.ChargedQueries)
	if bu := s.Budget; bu != nil {
		fmt.Fprintf(&b, "budget: quota %d (soft %d), %d identities (pool %d x zipf %.2f), max charged %d; accepted %d batches, rejected %d client-quota + %d degraded\n",
			bu.Quota, bu.SoftQuota, bu.Identities, bu.IdentityPool, bu.ZipfS,
			bu.MaxIdentityCharged, bu.AcceptedBatches, bu.RejectedClientQuota, bu.RejectedDegraded)
	}
	if s.Fleet != nil {
		fmt.Fprintf(&b, "fleet: %d replicas rf %d, %d publications; kills %d, restarts %d, verify mismatches %d\n",
			s.Fleet.Replicas, s.Fleet.ReplicationFactor, s.Fleet.Publications,
			s.Fleet.Kills, s.Fleet.Restarts, s.Fleet.VerifyMismatches)
	}
	if t.Fleet != nil {
		fmt.Fprintf(&b, "router: %d requests, %d retries, %d failovers; ejected %d, probed %d, reinstated %d; shed %d, unavailable %d, verified %d\n",
			t.Fleet.Requests, t.Fleet.Retries, t.Fleet.Failovers,
			t.Fleet.Ejections, t.Fleet.Probes, t.Fleet.Reinstated,
			t.Fleet.Shed, t.Fleet.Unavailable, t.Fleet.Verified)
	}
	for _, ot := range t.Ops {
		fmt.Fprintf(&b, "  %-11s n=%-5d mean %8.0f us  p50 %8.0f  p90 %8.0f  p99 %8.0f\n",
			ot.Op, ot.Count, ot.MeanUS, ot.P50US, ot.P90US, ot.P99US)
	}
	fmt.Fprintf(&b, "invariants: %d checks, %d violations", s.Invariants.Checks, s.Invariants.Violations)
	for _, f := range s.Invariants.Failures {
		fmt.Fprintf(&b, "\n  FAIL %s", f)
	}
	return b.String()
}

// opTimings folds raw per-op latency samples into sorted profiles.
func opTimings(lats map[string][]time.Duration) []OpTiming {
	names := make([]string, 0, len(lats))
	for op := range lats {
		if len(lats[op]) > 0 {
			names = append(names, op)
		}
	}
	sort.Strings(names)
	out := make([]OpTiming, 0, len(names))
	for _, op := range names {
		ds := lats[op]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		q := func(p float64) float64 {
			i := int(p * float64(len(ds)-1))
			return float64(ds[i].Microseconds())
		}
		out = append(out, OpTiming{
			Op:     op,
			Count:  len(ds),
			MeanUS: float64(sum.Microseconds()) / float64(len(ds)),
			P50US:  q(0.50),
			P90US:  q(0.90),
			P99US:  q(0.99),
		})
	}
	return out
}
