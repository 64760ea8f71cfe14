package sim

import "time"

// FleetPlan runs a scenario against a replicated fleet instead of a single
// server, with deterministic fault injection. Chaos points are fractions of
// the total operation count — not absolute ops and not wall time — so the
// same scenario scales from tier-1 test runs to full benchmarks without the
// kill landing before the first request or after the last.
type FleetPlan struct {
	// Replicas and ReplicationFactor shape the fleet (defaults 3 and 2).
	Replicas          int `json:"replicas"`
	ReplicationFactor int `json:"replication_factor"`
	// Publications is how many publications to place (default 1); each gets
	// the scenario's publish request with a distinct seed, so placement
	// spreads them across replicas.
	Publications int `json:"publications"`
	// KillAtFrac kills the first holder of publication 0 once that fraction
	// of all operations has been issued (0 disables). RestartAtFrac restarts
	// it later the same way; the restart rebuilds every held publication
	// from its request and replays missed generations.
	KillAtFrac    float64 `json:"kill_at_frac"`
	RestartAtFrac float64 `json:"restart_at_frac"`
	// SpikeEvery injects one latency spike of Spike into a rotating replica
	// every that-many operations (0 disables). With Spike above Timeout the
	// spiked attempt times out and the router fails over.
	SpikeEvery int           `json:"spike_every"`
	Spike      time.Duration `json:"-"`
	// Timeout is the router's per-attempt deadline (default 1s).
	Timeout time.Duration `json:"-"`
	// CrossProcess runs each replica as a spawned child process of this
	// binary, reached over real sockets — kills become real process exits
	// and restarts respawn and replay. The process embedding the simulator
	// must call fleet.ChildServeMain first thing in main (rpsim and this
	// package's test binary do).
	CrossProcess bool `json:"cross_process,omitempty"`
	// CheckpointLog is the fleet's mutation-log fold threshold (0 keeps the
	// fleet default; negative disables checkpointing). Ingest-style fleet
	// scenarios set it low so logs fold repeatedly mid-run and the
	// restarted replica restores snapshot + tail rather than full history.
	CheckpointLog int `json:"checkpoint_log,omitempty"`
}

// withDefaults resolves zero fields.
func (p FleetPlan) withDefaults() FleetPlan {
	if p.Replicas <= 0 {
		p.Replicas = 3
	}
	if p.ReplicationFactor <= 0 {
		p.ReplicationFactor = 2
	}
	if p.Publications <= 0 {
		p.Publications = 1
	}
	if p.Timeout <= 0 {
		p.Timeout = time.Second
	}
	if p.Spike <= 0 {
		p.Spike = 1300 * time.Millisecond
	}
	return p
}

// FleetSummary is the deterministic fleet half of a run summary: topology
// and chaos counts are schedule-independent, and verify mismatches are
// asserted zero by an invariant, so all of it is safe to byte-compare.
type FleetSummary struct {
	Replicas          int `json:"replicas"`
	ReplicationFactor int `json:"replication_factor"`
	// Transport is how the fleet reached its replicas: "in-process" or
	// "spawned" (cross-process child processes).
	Transport        string `json:"transport"`
	Publications     int    `json:"publications"`
	Kills            int64  `json:"kills"`
	Restarts         int64  `json:"restarts"`
	VerifyMismatches uint64 `json:"verify_mismatches"`
}

// FleetTiming is the nondeterministic fleet half: how often the router
// actually retried, ejected, probed, shed, and verified depends on request
// interleaving, so it reports next to the summary, never inside it.
type FleetTiming struct {
	Requests    uint64 `json:"requests"`
	Retries     uint64 `json:"retries"`
	Failovers   uint64 `json:"failovers"`
	Ejections   uint64 `json:"ejections"`
	Probes      uint64 `json:"probes"`
	Reinstated  uint64 `json:"reinstated"`
	Shed        uint64 `json:"shed"`
	Unavailable uint64 `json:"unavailable"`
	Verified    uint64 `json:"verified"`
	// Checkpoints counts mutation logs folded into snapshots. The fold
	// count depends on which holders were alive at each threshold crossing,
	// so it reports here, not in the summary.
	Checkpoints uint64 `json:"checkpoints"`
}

// chaos fires any due fault for global operation n. The counter hands each
// value to exactly one client, so each threshold triggers exactly once and
// the kill/restart counts are deterministic even though which client pulls
// the trigger is not. On one server the plan is zero and nothing fires.
func (r *runner) chaos(n int64) {
	if r.killAt > 0 && n == r.killAt {
		r.f.KillReplica(r.victim)
		r.kills.Add(1)
	}
	if r.restartAt > 0 && n == r.restartAt {
		r.check.check(r.f.RestartReplica(r.victim) == nil,
			"restarting replica %d failed", r.victim)
		r.restarts.Add(1)
	}
	if r.plan.SpikeEvery > 0 && n%int64(r.plan.SpikeEvery) == 0 {
		target := int((n / int64(r.plan.SpikeEvery)) % int64(r.plan.Replicas))
		r.f.InjectLatency(target, r.plan.Spike, 1)
	}
}
