// Package sim is a deterministic, seed-reproducible workload simulator for
// the publication server: N concurrent simulated clients, each executing a
// per-client SplitMix64-derived schedule of query/insert/refresh/
// reconstruct/audit operations, drive a target over real loopback HTTP,
// and the library's serving invariants are validated after every step.
//
// A scenario picks its target. Without a FleetPlan it is one in-process
// serve.Server (what rpserve runs); with one it is a fleet.Fleet of
// replicas behind its router (what rpfleet runs), in-process or, with
// CrossProcess, spawned child processes. Both serve the same batch
// endpoints, so one client loop drives either: the same seed draws the
// same workload against both, and a read-only scenario serves the same
// answers digest.
// Workloads are drawn from an in-process reference server given the same
// publish requests as the target.
//
// The invariants checked on either target are:
//
//   - exposure conservation: each client's cumulative charged query count
//     (answered queries plus m per reconstruction) must equal the target's
//     ledger, per response and at the end;
//   - insert integrity: each insert batch is applied whole, splits exactly
//     into trials + absorbed, and never leaves its publication with fewer
//     records than the initial batch plus the client's own inserts;
//   - reconstruction accuracy: on plain-perturbation (up) publications,
//     reconstructed frequencies stay within the internal/bounds Bernstein
//     envelope of the raw group frequencies at failure probability 1e-9,
//     across refreshed generations.
//
// On one server the runner also checks:
//
//   - latency accounting: the /statsz latency-histogram total must equal
//     the number of successfully answered /query and /reconstruct requests,
//     and the other /statsz counters the operation tallies;
//   - pipeline bit-identity: publications built or refreshed mid-simulation
//     at PipelineWorkers = 1 and at full width must have equal
//     Publication.Digest fingerprints;
//   - insert conservation: incremental publications never drop rows — the
//     raw stream totals the initial batch plus every inserted record;
//   - the budget mirror: under a BudgetPlan, every admission and 429
//     agrees with a local model of the manager's rule.
//
// On a fleet it checks instead that the router's aggregate exposure equals
// the clients' sum, that every live holder of a publication serves
// bit-identical state (fleet.ReplicaAgreement), that no sampled answer
// disagreed across replicas, that each scheduled kill and restart fired
// once, and that checkpointing kept every mutation log under its bound.
//
// A scenario fixes the operation mix, batch shapes, and client population;
// the seed fixes every random draw. Two runs of the same scenario, seed,
// and scale produce byte-identical Summary JSON — wall-clock measurements
// (throughput, latency quantiles) live in the separate Timing section so
// the summary stays a regression artifact. cmd/rpsim is the CLI front end;
// TestSimScenarios pins all built-in scenarios at small scale in tier-1.
package sim
