// Package fleet runs N serve.Server replicas behind one router and makes
// the pair behave like a single fault-tolerant publication server. A
// replica lives in this process (New), in a spawned child process of this
// binary reached over loopback sockets (NewProcs), or in an externally
// managed server the router attaches to (NewPeers); the router reaches
// every kind through the same HTTP surface.
//
// Placement is rendezvous hashing: each publication id scores every replica
// and lives on the top ReplicationFactor of them, so replicas hold disjoint
// overlapping subsets and losing one machine loses no publication with
// ReplicationFactor >= 2. Publications are deterministic builds — the same
// request yields bit-identical marginal cubes on every replica
// (Publication.Digest) — which is what makes replication cheap (no state
// transfer: a restarted replica rebuilds from the request) and agreement
// checkable (the router compares sampled answers across holders byte for
// byte).
//
// The router (Handler) proxies /query, /reconstruct, and /audit by
// publication id with per-attempt timeouts, capped exponential backoff with
// deterministic jitter, and failover across holders. Replica health is a
// three-state machine: healthy, ejected after EjectAfter consecutive
// failed attempts, probing after a cooldown of ProbeAfter routed
// requests — one trial request either reinstates the replica or re-ejects
// it. Admission control bounds the in-flight requests per replica; when
// every holder is saturated the router sheds load with a typed 429, and
// when every holder is down past the retry budget it fails with a typed
// 503, both carrying Retry-After (see the serve error taxonomy).
//
// Exposure accounting is router-authoritative: replicas report each
// batch's charge in the response's charged field, and the router adds it
// to its own per-client ledger exactly once per logical request — however
// many replica attempts, timeouts, or abandoned executions it took — then
// writes its ledger into the body it returns without decoding the answers:
// patched in place in a frame (wire.PatchLedger), spliced over the
// trailing client/ledger group of a JSON body (serve.SpliceJSONLedger).
// A success whose charge the router cannot read is a failed attempt, never
// relayed uncharged. Replica-local ledgers count abandoned work and are
// deliberately ignored; this is what keeps a retried query from being
// double-charged, the privacy half of the failover contract. Client resends
// are deduplicated by the X-Idempotency-Key header against a bounded
// replay cache.
package fleet
