package query

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/stats"
)

// TestAnswerBatchMatchesSequential checks that the pooled batch evaluator
// returns exactly what per-query Count/Estimate return — same counts, same
// estimate bits, same errors — for every worker count, with and without
// perturbation to invert.
func TestAnswerBatchMatchesSequential(t *testing.T) {
	full := testTable(t, 4, 3000)
	// Leave C=c3 without records, so some subsets are empty.
	tab := dataset.NewTable(full.Schema, full.NumRows())
	for r := 0; r < full.NumRows(); r++ {
		if row := full.Row(r); row[2] != 3 {
			tab.MustAppendRow(row...)
		}
	}
	mg, err := BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	var qs []Query
	for sa := uint16(0); sa < 5; sa++ {
		for a := uint16(0); a < 3; a++ {
			qs = append(qs, Query{Conds: []Cond{{Attr: 0, Value: a}}, SA: sa})
			for b := uint16(0); b < 2; b++ {
				qs = append(qs, Query{Conds: []Cond{{Attr: 0, Value: a}, {Attr: 1, Value: b}}, SA: sa})
			}
		}
		qs = append(qs, Query{Conds: []Cond{{Attr: 2, Value: 3}, {Attr: 1, Value: 0}}, SA: sa})
	}
	// A per-query failure must not poison the batch.
	qs = append(qs, Query{Conds: []Cond{{Attr: 0, Value: 99}}, SA: 0})
	qs = append(qs, Query{SA: 0}) // no conditions
	// An out-of-domain SA is an error even where the subset is empty.
	qs = append(qs, Query{Conds: []Cond{{Attr: 2, Value: 3}}, SA: 99})

	for _, p := range []float64{0.5, 1} {
		for _, workers := range []int{1, 2, 3, 8, 64} {
			got := mg.AnswerBatch(qs, p, workers)
			if len(got) != len(qs) {
				t.Fatalf("p=%v workers=%d: %d answers for %d queries", p, workers, len(got), len(qs))
			}
			for i, q := range qs {
				count, cerr := mg.Count(q)
				est, eerr := mg.Estimate(q, p)
				if cerr != nil || eerr != nil || got[i].Err != nil {
					if cerr == nil || eerr == nil || got[i].Err == nil ||
						cerr.Error() != got[i].Err.Error() || eerr.Error() != got[i].Err.Error() {
						t.Fatalf("p=%v workers=%d query %+v: errors Count %v, Estimate %v, batch %v",
							p, workers, q, cerr, eerr, got[i].Err)
					}
					continue
				}
				if got[i].Count != count {
					t.Fatalf("p=%v workers=%d query %d: count %d, want %d", p, workers, i, got[i].Count, count)
				}
				if math.Float64bits(got[i].Estimate) != math.Float64bits(est) {
					t.Fatalf("p=%v workers=%d query %d: estimate %v, want %v", p, workers, i, got[i].Estimate, est)
				}
			}
		}
	}
}

// TestAnswerBatchIntoAllocs pins the steady state the binary serving path
// relies on: one worker, a reused answer slice, and no allocation per batch,
// on a flat and on a stacked index.
func TestAnswerBatchIntoAllocs(t *testing.T) {
	stacked, flat := buildStacked(t, 21, 2000, 3, 3)
	rng := rand.New(rand.NewSource(22))
	qs := make([]Query, 500)
	for i := range qs {
		qs[i] = randomQuery(rng)
	}
	for name, mg := range map[string]*Marginals{"flat": flat, "stacked": stacked} {
		dst := mg.AnswerBatchInto(nil, qs, 0.5, 1)
		allocs := testing.AllocsPerRun(50, func() {
			dst = mg.AnswerBatchInto(dst, qs, 0.5, 1)
		})
		if allocs != 0 {
			t.Errorf("%s: AnswerBatchInto allocates %v times per batch, want 0", name, allocs)
		}
	}
}

// TestAnswerBatchExactData checks the p = 1 fast path: the estimate equals
// the count when nothing was perturbed.
func TestAnswerBatchExactData(t *testing.T) {
	tab := testTable(t, 4, 1000)
	mg, err := BuildMarginals(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	qs := []Query{{Conds: []Cond{{Attr: 0, Value: 1}}, SA: 2}}
	got := mg.AnswerBatch(qs, 1, 0)
	if got[0].Err != nil {
		t.Fatal(got[0].Err)
	}
	if got[0].Estimate != float64(got[0].Count) {
		t.Fatalf("p=1 estimate %v != count %d", got[0].Estimate, got[0].Count)
	}
}

// TestAnswerBatchEmpty covers the trivial batch.
func TestAnswerBatchEmpty(t *testing.T) {
	tab := testTable(t, 5, 100)
	mg, err := BuildMarginals(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := mg.AnswerBatch(nil, 0.5, 4); len(got) != 0 {
		t.Fatalf("empty batch returned %d answers", len(got))
	}
}

// TestGeneratePoolExhaustedTyped checks that rejection-sampling exhaustion
// surfaces as *PoolExhaustedError with the accepted count filled in.
func TestGeneratePoolExhaustedTyped(t *testing.T) {
	tab := testTable(t, 6, 200)
	mg, err := BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	// An unreachable selectivity threshold: no conjunction covers 90% of a
	// table with three values on attribute A alone.
	_, err = GeneratePool(stats.NewRand(1), mg, mg, nil,
		PoolOptions{Size: 10, MaxDim: 3, MinSelectivity: 0.9, MaxTries: 500})
	if err == nil {
		t.Fatal("expected pool exhaustion")
	}
	var pe *PoolExhaustedError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *PoolExhaustedError", err, err)
	}
	if pe.Want != 10 || pe.Tries != 500 || pe.MinSelectivity != 0.9 {
		t.Fatalf("unexpected fields: %+v", pe)
	}
	if pe.Accepted < 0 || pe.Accepted >= pe.Want {
		t.Fatalf("accepted %d out of range [0,%d)", pe.Accepted, pe.Want)
	}
}
