// Package serve is the long-running publication server behind cmd/rpserve:
// it holds reconstruction-private publications in memory and answers count
// queries against them at scale.
//
// The paper (Wang, Han, Fu, Wong, Yu — EDBT 2015) publishes a perturbed
// table precisely so it can be queried afterwards; Section 6.1 evaluates
// 5,000-query workloads against each publication. This package turns the
// one-shot pipeline (generalize → Corollary 4 test → SPS/UP publish, see
// internal/chimerge and internal/core) into a service:
//
//   - A publication is built once per (dataset, parameters) key and cached
//     together with its prebuilt query.Marginals index in a sharded registry
//     (one RWMutex per shard). Publications are immutable after they are
//     built, so query traffic takes only shard read-locks and one atomic
//     pointer load, and never contends with concurrent publishes.
//   - Concurrent identical publish requests are deduplicated: the registry
//     hands every caller the same pending entry, and the pipeline behind it
//     runs once (see singleflight.go for the primitive that also guards
//     dataset loading and marginal rebuilds).
//   - Queries arrive in batches and are answered from the cached marginal
//     cubes by a bounded worker pool — O(1) per query, no table scan
//     (query.Marginals.Answer, once per query). /query, /reconstruct and
//     /insert each run one core whatever the body encoding (batch.go): JSON
//     labels and binary wire codes differ only in how the body is decoded,
//     how items resolve to engine codes, and how the response is encoded.
//     A binary /query batch is validated once (wire.QueryFrame) and then
//     taken frame to frame: each worker decodes, maps, answers and encodes
//     its own queries, and the response is the ledger followed by the
//     workers' encoded answers.
//   - Streamed records are absorbed into a served publication through
//     core.Incremental without republishing: each insert batch appends a
//     small delta generation to the marginal index (ingest.go), and a
//     background compaction folds the generation stack back into one flat
//     index; answers and digests are identical at any cadence.
//   - The server tracks per-client cumulative query counts. Linear
//     reconstruction attacks (Kasiviswanathan, Rudelson, Smith et al.) grow
//     stronger with every answered query, so operators get a per-client
//     exposure counter and a configurable warning threshold in every query
//     response.
//   - The adversary side of the paper is served too (adversary.go): POST
//     /reconstruct answers batched full-distribution reconstructions
//     through the publication's reconstruct.Engine (each subset charged as
//     m count queries against the exposure counter), and POST /audit runs
//     the parallel per-group (λ, δ) tail audit (core.AuditSweep) on the
//     publication's raw group snapshot — singleflight-deduped and cached
//     by (publication, generation, parameters).
//
// Observability is served from /healthz and /statsz: publication and cache
// counters, query throughput, and p50/p99 request latency from a lock-free
// histogram (latency.go).
//
// HTTP surface (JSON bodies; the three batch endpoints marked * also
// accept internal/wire frames sent as Content-Type application/x-rp-binary
// and answer in kind; errors are always the JSON ErrorBody):
//
//	POST /publish       build-or-get a publication (async; id returned at once)
//	GET  /publications  list cached publications and their metadata
//	POST /query       * answer a batch of count queries against one publication
//	POST /reconstruct * batched SA-distribution reconstructions over condition sets
//	POST /audit         parallel per-group privacy audit of a publication (cached)
//	POST /refresh       republish the same key with a fresh RNG stream
//	POST /insert      * stream records into an incremental publication
//	POST /snapshot      checkpoint a publication (request + generation + stream state)
//	POST /restore       install a checkpoint as a fresh publication (replica seeding)
//	GET  /digest        publication digest + generation (replica-agreement probe)
//	GET  /healthz       liveness
//	GET  /statsz        counters, throughput, latency quantiles
package serve
