package query

import (
	"fmt"

	"github.com/reconpriv/reconpriv/internal/par"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
)

// A Marginals is immutable once built: BuildMarginals and
// BuildMarginalsFromGroups are the only writers, and every answering method
// (Answer, Count, CountNA, Estimate, AnswerBatch) works on private copies of
// its inputs. One Marginals can therefore be shared by any number of
// concurrent readers without synchronization — the property the serving
// layer relies on to answer query batches against a cached publication
// while other publications build.

// Answer is one query's result within a batch.
type Answer struct {
	// Count is the observed count O* of the query on the indexed data.
	Count int
	// Estimate is est = |S*|·F' (Section 6.1), the reconstruction-based
	// estimate of the true count; it equals Count when the batch was
	// evaluated with p = 1 (exact data, nothing to invert).
	Estimate float64
	// Err reports a per-query failure (out-of-domain value, too many
	// conditions); other queries in the batch are unaffected.
	Err error
}

// AnswerBatch answers every query in qs and returns per-query results in
// input order. p is the retention probability of the indexed publication;
// the estimator inverts it per Lemma 2 (pass p = 1 for raw, unperturbed
// data). workers bounds the evaluation pool: 0 means GOMAXPROCS, and the
// batch is split into contiguous stripes so results never contend.
//
// Each query costs a fixed number of reads — one locate, then one count and
// one size per generation, whatever the SA domain — so a 5,000-query batch
// (the paper's Section 6.1 workload) is microseconds of work per worker.
func (mg *Marginals) AnswerBatch(qs []Query, p float64, workers int) []Answer {
	return mg.AnswerBatchInto(nil, qs, p, workers)
}

// AnswerBatchInto is AnswerBatch writing into a reusable answer slice:
// dst is truncated and regrown to len(qs), reallocating only when its
// capacity is short. With one worker and a dst kept across batches, a
// steady-state batch allocates nothing.
func (mg *Marginals) AnswerBatchInto(dst []Answer, qs []Query, p float64, workers int) []Answer {
	if cap(dst) < len(qs) {
		dst = make([]Answer, len(qs))
	} else {
		dst = dst[:len(qs)]
	}
	if par.Clamp(len(qs), workers) == 1 {
		for i := range qs {
			dst[i] = mg.Answer(qs[i], p)
		}
		return dst
	}
	par.Striped(len(qs), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = mg.Answer(qs[i], p)
		}
	})
	return dst
}

// Answer is the Section 6.1 kernel behind every answering method: one
// locate yields the NA cell, whose count of the queried SA value is O* and
// whose size-plane entry is |S*|, and the Lemma 2(ii) estimate follows.
// Count, Estimate and the batch methods all return its fields, so they
// agree bit for bit — including the p = 1 estimate, which is the count
// itself rather than a float inversion of it. It reads q.Conds without
// keeping or modifying them and allocates only on an invalid query, so
// the serving layer calls it once per query as it decodes each one.
func (mg *Marginals) Answer(q Query, p float64) Answer {
	k, err := mg.locate(q.Conds)
	if err != nil {
		return Answer{Err: err}
	}
	if int(q.SA) >= mg.m {
		return Answer{Err: fmt.Errorf("query: SA value %d out of domain", q.SA)}
	}
	count := mg.count(k*mg.m + int(q.SA))
	if p == 1 {
		return Answer{Count: count, Estimate: float64(count)}
	}
	est := 0.0
	if size := mg.size(k); size > 0 {
		est = float64(size) * reconstruct.MLEValue(count, size, p, mg.m)
	}
	return Answer{Count: count, Estimate: est}
}
