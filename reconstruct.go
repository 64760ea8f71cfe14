package reconpriv

import (
	"fmt"

	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
)

// Reconstruct estimates the sensitive-value distribution of the record
// subset matching the given public-attribute conditions, from a *published*
// table. It inverts the perturbation with the maximum likelihood estimator
// of the paper's Lemma 2:
//
//	F'ᵢ = (O*ᵢ/|S*| − (1−p)/m) / p.
//
// conds maps attribute names to value labels; an empty map reconstructs over
// the whole table. p must be the retention probability the data was
// published with. The estimate is unbiased and sums to one, but entries may
// be slightly negative on small subsets — that inaccuracy on personal groups
// is exactly what reconstruction privacy guarantees.
//
// The returned map is keyed by sensitive-value label.
func Reconstruct(published *Table, conds map[string]string, p float64) (map[string]float64, error) {
	counts, size, err := observedCounts(published, conds)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, fmt.Errorf("reconpriv: no records match the conditions")
	}
	est, err := reconstruct.MLE(counts, p)
	if err != nil {
		return nil, err
	}
	sa := published.t.Schema.SAAttr()
	out := make(map[string]float64, len(est))
	for i, v := range est {
		out[sa.Label(uint16(i))] = v
	}
	return out, nil
}

// EstimateCount estimates the number of records satisfying the conditions
// AND carrying the given sensitive value, from a published table — the
// count-query estimator est = |S*|·F' of the paper's Section 6.1.
func EstimateCount(published *Table, conds map[string]string, sensitiveValue string, p float64) (float64, error) {
	counts, size, err := observedCounts(published, conds)
	if err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, nil
	}
	sa := published.t.Schema.SAAttr()
	code, err := sa.Code(sensitiveValue)
	if err != nil {
		return 0, err
	}
	fPrime := reconstruct.MLEValue(counts[code], size, p, sa.Domain())
	return float64(size) * fPrime, nil
}

// ReconstructClamped is Reconstruct with the estimate projected onto the
// probability simplex: negative entries are floored at 0 and the rest
// renormalized. The raw (unbiased) MLE of Reconstruct stays the default;
// clamping is for consumers that need a genuine distribution.
func ReconstructClamped(published *Table, conds map[string]string, p float64) (map[string]float64, error) {
	counts, size, err := observedCounts(published, conds)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, fmt.Errorf("reconpriv: no records match the conditions")
	}
	est, err := reconstruct.MLEClamped(counts, p)
	if err != nil {
		return nil, err
	}
	sa := published.t.Schema.SAAttr()
	out := make(map[string]float64, len(est))
	for i, v := range est {
		out[sa.Label(uint16(i))] = v
	}
	return out, nil
}

// Adversary is the batched reconstruction engine over one published table:
// it indexes the table's marginal cubes once (the same structure the
// publication server answers queries from) and then evaluates arbitrary
// batches of reconstruction and count-estimate requests with one O(1)
// histogram lookup each, instead of the per-call table scan of Reconstruct
// and EstimateCount. Realistic adversaries — the linear reconstruction
// attacks of Kasiviswanathan et al. — issue thousands of correlated
// queries, which is exactly the workload this engine is built for; the
// scan-based functions remain as the cross-checked reference (tests pin
// batch answers to the scan answers to 1e-12).
//
// An Adversary is immutable after construction and safe for concurrent use.
type Adversary struct {
	t    *Table
	p    float64
	marg *query.Marginals
	eng  *reconstruct.Engine
}

// NewAdversary indexes a published table for batched reconstruction with
// condition sets of up to 3 public attributes (the paper's query
// dimensionality). p must be the retention probability the table was
// published with.
func NewAdversary(published *Table, p float64) (*Adversary, error) {
	return NewAdversaryDepth(published, p, 3, 0)
}

// NewAdversaryDepth is NewAdversary with an explicit index depth (the
// largest condition-set size, capped at the number of public attributes)
// and indexing worker count (0 = GOMAXPROCS). Deeper indexes answer wider
// conjunctions but cost exponentially more memory; depth is capped at 8 by
// the index key packing.
func NewAdversaryDepth(published *Table, p float64, maxDim, workers int) (*Adversary, error) {
	marg, err := query.BuildMarginalsParallel(published.t, maxDim, workers)
	if err != nil {
		return nil, err
	}
	eng, err := reconstruct.NewEngine(marg, p)
	if err != nil {
		return nil, err
	}
	return &Adversary{t: published, p: p, marg: marg, eng: eng}, nil
}

// Reconstruction is one subset's result within a batched reconstruction:
// the estimated sensitive-value distribution keyed by label, the observed
// subset size, and a per-subset error. An empty subset is not an error —
// Size is 0 and Freqs nil.
type Reconstruction struct {
	Freqs map[string]float64
	Size  int
	Err   error
}

// ReconstructBatch reconstructs the sensitive-value distribution of every
// condition set, in input order — the batched, index-backed form of
// Reconstruct. Each subset is an attribute-name → value-label map, exactly
// as Reconstruct takes, except that the empty set (whole-table
// reconstruction) must go through Reconstruct's scan path — the marginal
// index stores no 0-attribute cube. clamp applies the simplex projection of
// ReconstructClamped to every estimate.
func (a *Adversary) ReconstructBatch(subsets []map[string]string, clamp bool) []Reconstruction {
	sets := make([][]reconstruct.Condition, len(subsets))
	resolveErr := make([]error, len(subsets))
	for i, conds := range subsets {
		sets[i], resolveErr[i] = a.condSet(conds)
	}
	raw := a.eng.ReconstructBatch(sets, reconstruct.BatchOptions{Clamp: clamp})
	sa := a.t.t.Schema.SAAttr()
	out := make([]Reconstruction, len(subsets))
	for i, r := range raw {
		if resolveErr[i] != nil {
			out[i] = Reconstruction{Err: resolveErr[i]}
			continue
		}
		out[i] = Reconstruction{Size: r.Size, Err: r.Err}
		if r.Freqs != nil {
			freqs := make(map[string]float64, len(r.Freqs))
			for v, f := range r.Freqs {
				freqs[sa.Label(uint16(v))] = f
			}
			out[i].Freqs = freqs
		}
	}
	return out
}

// CountQuery is one batched count-estimate request: conjunctive conditions
// on public attributes plus one sensitive value, all by label.
type CountQuery struct {
	Conds          map[string]string
	SensitiveValue string
}

// CountEstimate is one CountQuery's result: est = |S*|·F' (Section 6.1) and
// the observed subset size. An empty subset estimates 0 with no error,
// matching EstimateCount.
type CountEstimate struct {
	Estimate float64
	Size     int
	Err      error
}

// EstimateCountBatch evaluates the Section 6.1 count estimator for every
// query, in input order — the batched, index-backed form of EstimateCount.
// Each estimate comes from the query kernel that serves /query (one count
// and one size read); Size is the subset's indexed size.
func (a *Adversary) EstimateCountBatch(qs []CountQuery) []CountEstimate {
	batch := make([]query.Query, len(qs))
	resolveErr := make([]error, len(qs))
	for i, q := range qs {
		set, err := a.condSet(q.Conds)
		if err == nil {
			var code uint16
			if code, err = a.t.t.Schema.SAAttr().Code(q.SensitiveValue); err == nil {
				batch[i] = query.Query{Conds: set, SA: code}
			}
		}
		resolveErr[i] = err
	}
	answers := a.marg.AnswerBatch(batch, a.p, 0)
	out := make([]CountEstimate, len(qs))
	for i, ans := range answers {
		err := resolveErr[i]
		if err == nil {
			err = ans.Err
		}
		if err != nil {
			out[i] = CountEstimate{Err: err}
			continue
		}
		size, err := a.marg.CountNA(batch[i].Conds)
		out[i] = CountEstimate{Estimate: ans.Estimate, Size: size, Err: err}
	}
	return out
}

// condSet resolves an attribute-name → value-label map into index
// conditions.
func (a *Adversary) condSet(conds map[string]string) ([]query.Cond, error) {
	attrs, vals, err := a.t.resolveConds(conds)
	if err != nil {
		return nil, err
	}
	set := make([]query.Cond, len(attrs))
	for j := range attrs {
		set[j] = query.Cond{Attr: attrs[j], Value: vals[j]}
	}
	return set, nil
}

// CountPairs evaluates the queries and returns (x, y) count pairs for the
// NIR ratio attack: x the subset size (public-attribute match count, exact
// on published data — NA values are never perturbed) and y the
// reconstruction-based estimate of the sensitive match count. A negative
// estimate — routine for rare values on small subsets, where the unbiased
// MLE dips below zero — is floored at 0: the attack models the true count,
// which cannot be negative, and the ratio attack requires y ≥ 0. Queries
// that fail to resolve or match no records return an error — the ratio
// attack needs x > 0.
func (a *Adversary) CountPairs(qs []CountQuery) ([]CountPair, error) {
	ests := a.EstimateCountBatch(qs)
	out := make([]CountPair, len(ests))
	for i, e := range ests {
		if e.Err != nil {
			return nil, fmt.Errorf("reconpriv: count pair %d: %w", i, e.Err)
		}
		if e.Size == 0 {
			return nil, fmt.Errorf("reconpriv: count pair %d: no records match the conditions", i)
		}
		y := e.Estimate
		if y < 0 {
			y = 0
		}
		out[i] = CountPair{X: float64(e.Size), Y: y}
	}
	return out, nil
}

// Count returns the exact number of records satisfying the conditions (and,
// when sensitiveValue is non-empty, carrying that sensitive value). Intended
// for raw tables — on published data it counts perturbed values.
func Count(t *Table, conds map[string]string, sensitiveValue string) (int, error) {
	counts, size, err := observedCounts(t, conds)
	if err != nil {
		return 0, err
	}
	if sensitiveValue == "" {
		return size, nil
	}
	code, err := t.t.Schema.SAAttr().Code(sensitiveValue)
	if err != nil {
		return 0, err
	}
	return counts[code], nil
}

// observedCounts scans the table once, returning the SA histogram and size
// of the subset matching conds.
func observedCounts(t *Table, conds map[string]string) ([]int, int, error) {
	attrs, vals, err := t.resolveConds(conds)
	if err != nil {
		return nil, 0, err
	}
	m := t.t.Schema.SADomain()
	counts := make([]int, m)
	size := 0
	n := t.t.NumRows()
	for r := 0; r < n; r++ {
		row := t.t.Row(r)
		match := true
		for i, a := range attrs {
			if row[a] != vals[i] {
				match = false
				break
			}
		}
		if match {
			counts[row[t.t.Schema.SA]]++
			size++
		}
	}
	return counts, size, nil
}
