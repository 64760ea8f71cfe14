package query

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/reconpriv/reconpriv/internal/dataset"
)

// buildStacked splits a table into a base plus delta chunks, builds a
// marginal index per piece, and stacks them with WithDelta — the shape the
// serve layer's ingest path produces. All pieces share the schema, so they
// share the deterministic arena layout WithDelta requires.
func buildStacked(t *testing.T, seed int64, rows, chunks, maxDim int) (stacked, flat *Marginals) {
	t.Helper()
	full := testTable(t, seed, rows)
	flat, err := BuildMarginals(full, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	per := rows / (chunks + 1)
	pieces := make([]*Marginals, 0, chunks+1)
	for c := 0; c <= chunks; c++ {
		lo, hi := c*per, (c+1)*per
		if c == chunks {
			hi = rows
		}
		piece := dataset.NewTable(full.Schema, hi-lo)
		for r := lo; r < hi; r++ {
			piece.MustAppendRow(full.Row(r)...)
		}
		m, err := BuildMarginals(piece, maxDim)
		if err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, m)
	}
	stacked = pieces[0]
	for _, d := range pieces[1:] {
		if stacked, err = stacked.WithDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	return stacked, flat
}

// TestStackedMarginalsBitIdentical is the LSM invariant: a generation stack
// answers every query with the same bits as a flat index over the union of
// the data, its checksum is the flat checksum, and Compact() produces a flat
// index that is again bit-identical — so compaction timing can never be
// observed through any answer or digest.
func TestStackedMarginalsBitIdentical(t *testing.T) {
	const rows = 3000
	stacked, flat := buildStacked(t, 11, rows, 4, 3)
	if g := stacked.Generations(); g != 5 {
		t.Fatalf("stack holds %d generations, want 5", g)
	}
	if stacked.Total() != flat.Total() {
		t.Fatalf("stacked total %d, flat %d", stacked.Total(), flat.Total())
	}
	if stacked.Checksum() != flat.Checksum() {
		t.Fatalf("stacked checksum %x, flat %x", stacked.Checksum(), flat.Checksum())
	}
	compacted := stacked.Compact()
	if g := compacted.Generations(); g != 1 {
		t.Fatalf("compacted index holds %d generations", g)
	}
	if compacted.Checksum() != flat.Checksum() {
		t.Fatalf("compacted checksum %x, flat %x", compacted.Checksum(), flat.Checksum())
	}

	rng := rand.New(rand.NewSource(12))
	const p = 0.7
	for trial := 0; trial < 2000; trial++ {
		q := randomQuery(rng)
		want, err := flat.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]*Marginals{"stacked": stacked, "compacted": compacted} {
			got, err := m.Count(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s Count %+v = %d, flat %d", name, q, got, want)
			}
			na, err := m.CountNA(q.Conds)
			if err != nil {
				t.Fatal(err)
			}
			wantNA, _ := flat.CountNA(q.Conds)
			if na != wantNA {
				t.Fatalf("%s CountNA = %d, flat %d", name, na, wantNA)
			}
			est, err := m.Estimate(q, p)
			if err != nil {
				t.Fatal(err)
			}
			wantEst, _ := flat.Estimate(q, p)
			if math.Float64bits(est) != math.Float64bits(wantEst) {
				t.Fatalf("%s Estimate = %v, flat %v (bits differ)", name, est, wantEst)
			}
		}
	}

	// The batch path must agree with the flat index on the stack and on its
	// compaction, at any worker width.
	qs := make([]Query, 300)
	for i := range qs {
		qs[i] = randomQuery(rng)
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		fa := flat.AnswerBatch(qs, p, workers)
		for name, m := range map[string]*Marginals{"stacked": stacked, "compacted": compacted} {
			ma := m.AnswerBatch(qs, p, workers)
			for i := range ma {
				if ma[i].Err != nil || fa[i].Err != nil {
					t.Fatalf("workers=%d query %d errored: %s %v / flat %v", workers, i, name, ma[i].Err, fa[i].Err)
				}
				if ma[i].Count != fa[i].Count || math.Float64bits(ma[i].Estimate) != math.Float64bits(fa[i].Estimate) {
					t.Fatalf("workers=%d query %+v: %s (%d, %v) vs flat (%d, %v)",
						workers, qs[i], name, ma[i].Count, ma[i].Estimate, fa[i].Count, fa[i].Estimate)
				}
			}
		}
	}
}

// randomQuery draws a query over testTable's schema: one to three distinct
// public attributes in random order, with uniform values and SA.
func randomQuery(rng *rand.Rand) Query {
	doms := []int{3, 2, 4}
	q := Query{SA: uint16(rng.Intn(5))}
	for _, a := range rng.Perm(3)[:1+rng.Intn(3)] {
		q.Conds = append(q.Conds, Cond{Attr: a, Value: uint16(rng.Intn(doms[a]))})
	}
	return q
}

// TestWithDeltaFlattensChains pins the representation: chaining WithDelta
// never nests stacks (each result holds the original base plus a flat list
// of deltas), appending is non-destructive to the receiver, and unioning
// incompatible layouts is a typed error, not a corrupted index.
func TestWithDeltaFlattensChains(t *testing.T) {
	base := testTable(t, 31, 600)
	m0, err := BuildMarginals(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := BuildMarginals(testTable(t, 32, 100), 3)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := m0.WithDelta(d1)
	if err != nil {
		t.Fatal(err)
	}
	if m0.Generations() != 1 || m0.Total() != 600 {
		t.Fatalf("WithDelta mutated its receiver: %d generations, %d total", m0.Generations(), m0.Total())
	}
	// Append a delta onto a stack built from another stack: generations must
	// count pieces, not nesting depth.
	d2, err := BuildMarginals(testTable(t, 33, 100), 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m1.WithDelta(d2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Generations() != 3 || m1.Generations() != 2 {
		t.Fatalf("generations: m1=%d want 2, m2=%d want 3", m1.Generations(), m2.Generations())
	}
	if m2.Total() != 800 {
		t.Fatalf("m2 total %d, want 800", m2.Total())
	}
	// Stacking a stack (non-flat delta) must also work: the delta's own
	// generations fold into the result.
	m3, err := m0.WithDelta(m1)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Generations() != 3 || m3.Total() != 1300 {
		t.Fatalf("stack-of-stack: %d generations, %d total", m3.Generations(), m3.Total())
	}

	// Layout incompatibility: a different maxDim has different cubes.
	narrow, err := BuildMarginals(testTable(t, 34, 50), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m0.WithDelta(narrow); err == nil {
		t.Fatal("WithDelta across maxDim accepted — layouts cannot line up")
	}
}
