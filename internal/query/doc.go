// Package query implements the count-query workload of the paper's Section
// 6.1: conjunctive COUNT queries of the form
//
//	SELECT COUNT(*) FROM D WHERE A1=a1 ∧ … ∧ Ad=ad ∧ SA=sa
//
// with dimensionality d ∈ {1,2,3}, a random 5,000-query pool with
// selectivity ≥ 0.1% (GeneratePool, rejection-sampled; exhaustion surfaces
// as *PoolExhaustedError), and the reconstruction-based estimator
// est = |S*|·F' (Marginals.Estimate) evaluated against perturbed data,
// where F' is the Lemma 2(ii) MLE from internal/reconstruct.
//
// Queries are answered from precomputed low-dimensional marginal cubes
// (every ≤MaxDim-attribute NA subset × SA) plus a size plane holding each
// cube cell's SA-summed count, so evaluation is O(1) per query — a rank
// computation and two reads, whatever the SA domain — instead of a table
// scan: the trick that keeps the 500K-record CENSUS sweeps tractable and
// lets the publication server answer 5,000-query batches in a fraction of a
// millisecond. Build a Marginals once per table
// (BuildMarginals) or, far cheaper when |G| ≪ |D|, per published group set
// (BuildMarginalsFromGroups); the result is immutable and safe to share
// across any number of concurrent readers. AnswerBatch is the pooled batch
// entry point the serving layer uses.
//
// The *Parallel build variants distribute whole cubes — and, when workers
// outnumber cubes, per-cube row shards with privately accumulated partial
// counts — across a worker pool; counts are integer sums, so the index is
// bit-identical at any width. Cubes are addressed by the combinadic rank of
// the conditions' public-attribute positions and laid out in packed
// subset-key order, which is the same order; the index takes at most 8
// conditions over at most 254 attributes, and schemas or depths beyond that
// fail construction with a typed *IndexLimitError.
package query
