package sim

import (
	"fmt"
	"strings"
	"time"

	"github.com/reconpriv/reconpriv/internal/serve"
)

// Mix holds the relative weights of the operations a client draws from its
// stream at each step. A zero weight disables the operation; at least one
// weight must be positive.
type Mix struct {
	Query       int `json:"query"`
	Insert      int `json:"insert"`
	Refresh     int `json:"refresh"`
	Reconstruct int `json:"reconstruct"`
	Audit       int `json:"audit"`
}

func (m Mix) total() int {
	return m.Query + m.Insert + m.Refresh + m.Reconstruct + m.Audit
}

// Scenario describes one reproducible workload: the publication under test,
// the client population, the operation mix, and the per-operation batch
// shapes. Everything else — which operation each client runs at each step
// and every payload — derives from the run seed.
type Scenario struct {
	// Name identifies the scenario (rpsim -scenario).
	Name string
	// Description is the one-line summary rpsim -list prints.
	Description string
	// Publish is the publication every client works against. Incremental
	// publications are required for scenarios with insert weight.
	Publish serve.PublishRequest
	// Mix is the operation weight table.
	Mix Mix
	// Clients and Steps are the default population and per-client step
	// count; Options can override both.
	Clients int
	Steps   int
	// QueriesPerBatch, SubsetsPerBatch, RecordsPerInsert size one
	// operation of each kind.
	QueriesPerBatch  int
	SubsetsPerBatch  int
	RecordsPerInsert int
	// AuditTrials is the Monte-Carlo trial count of one audit operation.
	// Audit seeds are drawn from a small fixed set so verdicts are
	// independent of the run seed and the audit cache is exercised.
	AuditTrials int
	// CompactEvery overrides the server's generation-compaction threshold
	// when non-zero (-1 disables compaction). Insert scenarios set it low so
	// background compaction races the query and insert streams.
	CompactEvery int
	// CheckBernstein enables the reconstruction-accuracy invariant. It is
	// only sound for method "up": plain perturbation retains every record
	// and perturbs each independently, which is exactly the Poisson-trials
	// model behind the internal/bounds Bernstein envelope. SPS deliberately
	// pushes violating groups past their raw-size bounds, and incremental
	// absorption duplicates records, so neither fits the model.
	CheckBernstein bool
	// Fleet, when set, runs the scenario against a replicated fleet with
	// deterministic fault injection instead of a single server (see
	// FleetPlan). The clients and their operations are the same on either
	// target; a check that needs one target's internals runs only there.
	// Mutations are allowed — the router fans inserts and refreshes out to
	// every live holder and logs them for restart replay, folding the log
	// into checkpoints when configured.
	Fleet *FleetPlan
	// Budget, when set, enables the exposure-budget workload (see
	// BudgetPlan): quotas are enforced, identities are zipf-skewed, and the
	// runner validates every 429 against a local mirror of the manager's
	// admission rule.
	Budget *BudgetPlan
}

// BudgetPlan drives the budget scenario: every query and reconstruct
// operation draws its client identity from a Zipf distribution over the
// worker's own identity pool, so a few head identities concentrate charges
// and exhaust their quotas while the tail never comes close. Identity pools
// are disjoint per worker and the simulation clock is frozen (the window
// never rotates), so each identity's accept/reject sequence is a pure
// function of its own drawn history — rejection tallies are part of the
// deterministic summary. The publication quota is disabled for the run: it
// is shared across identities, so whether a given request tripped it would
// depend on goroutine interleaving.
type BudgetPlan struct {
	// Quota is the per-identity window quota (serve.Config.BudgetQuota).
	Quota int64
	// SoftFraction of the quota past which reconstruct-class charges are
	// shed (0 = budget.DefaultSoftFraction).
	SoftFraction float64
	// IdentityPool is the per-worker identity pool size and ZipfS the
	// exponent (> 1) ranking those identities by popularity.
	IdentityPool int
	ZipfS        float64
}

// DeterministicAnswers reports whether served answers are independent of
// request interleaving: with no inserts and no refreshes the publication
// never changes, so the answer stream folds into the summary digest.
func (sc *Scenario) DeterministicAnswers() bool {
	return sc.Mix.Insert == 0 && sc.Mix.Refresh == 0
}

// validate rejects inconsistent scenarios before any server is started.
func (sc *Scenario) validate() error {
	if sc.Mix.total() <= 0 {
		return fmt.Errorf("sim: scenario %q has an empty operation mix", sc.Name)
	}
	if sc.Mix.Insert > 0 && sc.Publish.Method != serve.MethodIncremental {
		return fmt.Errorf("sim: scenario %q mixes inserts into a %q publication; inserts need method %q",
			sc.Name, sc.Publish.Method, serve.MethodIncremental)
	}
	if sc.CheckBernstein && sc.Publish.Method != serve.MethodUP {
		return fmt.Errorf("sim: scenario %q enables the Bernstein invariant on method %q; it is only sound for %q",
			sc.Name, sc.Publish.Method, serve.MethodUP)
	}
	if b := sc.Budget; b != nil {
		if sc.Fleet != nil {
			return fmt.Errorf("sim: budget scenario %q runs against a fleet; the router's precheck/settle split needs its own mirror", sc.Name)
		}
		if sc.Mix.Insert > 0 || sc.Mix.Refresh > 0 {
			return fmt.Errorf("sim: budget scenario %q mixes mutations; budget workloads are read-only", sc.Name)
		}
		if b.Quota <= 0 {
			return fmt.Errorf("sim: budget scenario %q needs a positive quota", sc.Name)
		}
		if b.IdentityPool <= 0 || b.ZipfS <= 1 {
			return fmt.Errorf("sim: budget scenario %q needs IdentityPool > 0 and ZipfS > 1", sc.Name)
		}
	}
	return nil
}

// simDataset is the publication every built-in scenario serves: the medical
// generator at a size small enough for tier-1 runs yet large enough that
// groups span the violating and non-violating regimes.
func simDataset(method string) serve.PublishRequest {
	return serve.PublishRequest{Dataset: serve.DatasetMedical, Size: 2000, Seed: 1, Method: method}
}

// Scenarios returns the built-in scenarios in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:            "steady-read",
			Description:     "read-only query traffic against one SPS publication; answers folded into the summary digest",
			Publish:         simDataset(serve.MethodSPS),
			Mix:             Mix{Query: 1},
			Clients:         8,
			Steps:           30,
			QueriesPerBatch: 50,
		},
		{
			Name:             "churn",
			Description:      "insert/refresh-heavy streaming publication: refreshes race inserts and queries",
			Publish:          simDataset(serve.MethodIncremental),
			Mix:              Mix{Query: 3, Insert: 5, Refresh: 1},
			Clients:          8,
			Steps:            25,
			QueriesPerBatch:  20,
			RecordsPerInsert: 40,
		},
		{
			Name:             "ingest",
			Description:      "sustained /insert firehose against the delta-marginal path: background compaction races inserts and queries, append accounting and conservation checked",
			Publish:          simDataset(serve.MethodIncremental),
			Mix:              Mix{Query: 2, Insert: 5},
			Clients:          8,
			Steps:            25,
			QueriesPerBatch:  20,
			RecordsPerInsert: 50,
			CompactEvery:     2,
		},
		{
			Name:            "adversary",
			Description:     "reconstruct/audit-heavy adaptive querier against a plain-perturbation publication, Bernstein-checked",
			Publish:         simDataset(serve.MethodUP),
			Mix:             Mix{Query: 1, Refresh: 1, Reconstruct: 5, Audit: 1},
			Clients:         8,
			Steps:           20,
			QueriesPerBatch: 20,
			SubsetsPerBatch: 20,
			AuditTrials:     200,
			CheckBernstein:  true,
		},
		{
			Name:            "fleet",
			Description:     "replicated fleet under kill/restart chaos: failover, probe reinstatement, exactly-once exposure across retries",
			Publish:         simDataset(serve.MethodSPS),
			Mix:             Mix{Query: 5, Reconstruct: 2, Audit: 1},
			Clients:         8,
			Steps:           25,
			QueriesPerBatch: 20,
			SubsetsPerBatch: 10,
			AuditTrials:     200,
			Fleet: &FleetPlan{
				Replicas:          3,
				ReplicationFactor: 2,
				Publications:      3,
				KillAtFrac:        0.2,
				RestartAtFrac:     0.6,
				SpikeEvery:        25,
				Spike:             1300 * time.Millisecond,
				Timeout:           time.Second,
			},
		},
		{
			Name:             "fleet-ingest",
			Description:      "cross-process fleet under a streaming firehose: child replicas killed and respawned mid-ingest, mutation logs folding into checkpoints, zero lost batches",
			Publish:          simDataset(serve.MethodIncremental),
			Mix:              Mix{Query: 3, Insert: 4, Refresh: 1},
			Clients:          6,
			Steps:            20,
			QueriesPerBatch:  15,
			RecordsPerInsert: 30,
			Fleet: &FleetPlan{
				Replicas:          3,
				ReplicationFactor: 2,
				Publications:      2,
				KillAtFrac:        0.25,
				RestartAtFrac:     0.65,
				// No latency spikes are injected, so failover comes from the
				// kill's instant connection-refused, not from timeouts — the
				// deadline is deliberately generous so race-instrumented child
				// processes on a loaded runner never burn the attempt budget.
				Timeout:       5 * time.Second,
				CrossProcess:  true,
				CheckpointLog: 6,
			},
		},
		{
			Name:            "budget",
			Description:     "zipf-skewed identities against enforced exposure quotas: typed 429s, degraded reconstructs, never-undercount sketching",
			Publish:         simDataset(serve.MethodSPS),
			Mix:             Mix{Query: 3, Reconstruct: 2},
			Clients:         8,
			Steps:           30,
			QueriesPerBatch: 20,
			SubsetsPerBatch: 4,
			Budget: &BudgetPlan{
				Quota:        240,
				SoftFraction: 0.85,
				IdentityPool: 16,
				ZipfS:        1.4,
			},
		},
		{
			Name:             "mixed",
			Description:      "all operations against one streaming publication: queries, inserts, refreshes, reconstructions, audits",
			Publish:          simDataset(serve.MethodIncremental),
			Mix:              Mix{Query: 4, Insert: 2, Refresh: 1, Reconstruct: 2, Audit: 1},
			Clients:          8,
			Steps:            25,
			QueriesPerBatch:  25,
			SubsetsPerBatch:  15,
			RecordsPerInsert: 30,
			AuditTrials:      200,
		},
	}
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, error) {
	names := make([]string, 0, 4)
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	return Scenario{}, fmt.Errorf("sim: unknown scenario %q (want one of %s)", name, strings.Join(names, ", "))
}
