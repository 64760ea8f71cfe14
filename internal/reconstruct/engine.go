package reconstruct

import (
	"fmt"
	"math"

	"github.com/reconpriv/reconpriv/internal/par"
)

// Condition is one equality condition on a public attribute, in engine
// codes. It is the condition currency of the whole adversary stack:
// internal/query aliases it as query.Cond, so condition sets move between
// the marginal index and this package without conversion.
type Condition struct {
	Attr  int // schema attribute index
	Value uint16
}

// Counter is the indexed subset-count source an Engine reconstructs from.
// query.Marginals implements it: every call is an O(1) cube lookup instead
// of a table scan. The implementation must be safe for concurrent readers —
// the batch methods fan condition sets out across workers.
type Counter interface {
	// SADomain returns m, the sensitive-attribute domain size.
	SADomain() int
	// SubsetCountsInto fills dst (length SADomain) with the SA histogram of
	// the record subset matching conds and returns the subset size. An
	// unanswerable condition set (empty, out of domain, deeper than the
	// index) returns an error.
	SubsetCountsInto(conds []Condition, dst []int) (int, error)
}

// Engine answers batched full-distribution reconstructions over arbitrary
// condition sets against published data through a Counter. It holds no
// mutable state, so one Engine is safe for any number of concurrent
// batches; a served publication builds one next to its marginal index.
//
// The estimator is exactly Lemma 2 (MLE) evaluated on indexed subset counts
// instead of per-call row scans; the scan path in the public Reconstruct API
// is kept as the cross-checked reference implementation. Count estimates
// (Section 6.1) need one cell, not the whole histogram, and come from
// query.Marginals.AnswerBatch.
type Engine struct {
	src Counter
	p   float64
	m   int
}

// NewEngine wraps an indexed count source for published data with retention
// probability p.
func NewEngine(src Counter, p float64) (*Engine, error) {
	if src == nil {
		return nil, fmt.Errorf("reconstruct: engine needs a count source")
	}
	m := src.SADomain()
	if m < 2 {
		return nil, fmt.Errorf("reconstruct: SA domain must have at least 2 values, got %d", m)
	}
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("reconstruct: retention probability must be in (0,1), got %v", p)
	}
	return &Engine{src: src, p: p, m: m}, nil
}

// BatchOptions tune one batch evaluation.
type BatchOptions struct {
	// Workers bounds the evaluation pool (0 = GOMAXPROCS). Results are
	// positionally assigned, so they are identical at any worker count.
	Workers int
	// Clamp projects each reconstruction onto the probability simplex:
	// negative MLE entries are floored at 0 and the rest renormalized. The
	// raw MLE stays the default — it is unbiased, clamping is not.
	Clamp bool
}

// Reconstruction is one condition set's result within a ReconstructBatch.
type Reconstruction struct {
	// Freqs is the estimated SA frequency vector of the subset (length
	// SADomain); nil when the subset is empty or the conditions failed.
	Freqs []float64
	// Size is the observed subset size |S*|.
	Size int
	// Err reports a per-set failure (out-of-domain value, too many
	// conditions); other sets in the batch are unaffected. An empty subset
	// is not an error: Size is 0 and Freqs nil.
	Err error
}

// ReconstructBatch runs the Lemma 2 MLE over every condition set and
// returns per-set results in input order. This is the batched form of the
// public Reconstruct API: one indexed histogram lookup per set instead of
// one full table scan, which is what makes thousand-condition adversary
// workloads (the linear-reconstruction regime) practical.
func (e *Engine) ReconstructBatch(sets [][]Condition, opt BatchOptions) []Reconstruction {
	out := make([]Reconstruction, len(sets))
	par.Striped(len(sets), opt.Workers, func(_, lo, hi int) {
		counts := make([]int, e.m)
		for i := lo; i < hi; i++ {
			out[i] = e.reconstructOne(sets[i], counts, opt.Clamp)
		}
	})
	return out
}

// reconstructOne evaluates one condition set into a Reconstruction, reusing
// the caller's scratch histogram.
func (e *Engine) reconstructOne(conds []Condition, counts []int, clamp bool) Reconstruction {
	size, err := e.src.SubsetCountsInto(conds, counts)
	if err != nil {
		return Reconstruction{Err: err}
	}
	if size == 0 {
		return Reconstruction{}
	}
	// Lemma 2: F'ᵢ = (O*ᵢ/|S*| − (1−p)/m) / p — inlined from MLE so the
	// batch reuses the scratch histogram without re-validating p and m per
	// set. Equality with MLE on the same counts is pinned by tests.
	off := (1 - e.p) / float64(e.m)
	freqs := make([]float64, e.m)
	for i, c := range counts {
		freqs[i] = (float64(c)/float64(size) - off) / e.p
	}
	if clamp {
		ClampSimplex(freqs)
	}
	return Reconstruction{Freqs: freqs, Size: size}
}
