package reconstruct_test

// The engine tests live in an external test package so they can drive the
// engine through query.Marginals — the Counter implementation the adversary
// stack actually runs on (the query package imports reconstruct, so an
// internal test could not).

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/stats"
)

// engineFixture builds a random 3-NA-attribute table, its marginal index,
// and an engine over it.
func engineFixture(t *testing.T, seed int64, rows int) (*dataset.Table, *query.Marginals, *reconstruct.Engine) {
	t.Helper()
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "A", Values: []string{"a0", "a1", "a2"}},
		{Name: "B", Values: []string{"b0", "b1"}},
		{Name: "C", Values: []string{"c0", "c1", "c2", "c3"}},
		{Name: "S", Values: []string{"s0", "s1", "s2"}},
	}, "S")
	rng := stats.NewRand(seed)
	tab := dataset.NewTable(schema, rows)
	for i := 0; i < rows; i++ {
		tab.MustAppendRow(uint16(rng.Intn(3)), uint16(rng.Intn(2)), uint16(rng.Intn(4)), uint16(rng.Intn(3)))
	}
	marg, err := query.BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := reconstruct.NewEngine(marg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return tab, marg, eng
}

// scanCounts is the reference scan: the SA histogram of the subset.
func scanCounts(tab *dataset.Table, conds []reconstruct.Condition) ([]int, int) {
	counts := make([]int, tab.Schema.SADomain())
	size := 0
	for r := 0; r < tab.NumRows(); r++ {
		row := tab.Row(r)
		ok := true
		for _, c := range conds {
			if row[c.Attr] != c.Value {
				ok = false
				break
			}
		}
		if ok {
			counts[row[tab.Schema.SA]]++
			size++
		}
	}
	return counts, size
}

// randomSets draws n random condition sets over the fixture schema,
// including values that select empty subsets.
func randomSets(rng *stats.Rand, n int) [][]reconstruct.Condition {
	domains := []int{3, 2, 4}
	sets := make([][]reconstruct.Condition, n)
	for i := range sets {
		dim := 1 + rng.Intn(3)
		attrs := rng.Perm(3)[:dim]
		set := make([]reconstruct.Condition, dim)
		for j, a := range attrs {
			set[j] = reconstruct.Condition{Attr: a, Value: uint16(rng.Intn(domains[a]))}
		}
		sets[i] = set
	}
	return sets
}

func TestEngineValidation(t *testing.T) {
	_, marg, _ := engineFixture(t, 1, 50)
	if _, err := reconstruct.NewEngine(nil, 0.5); err == nil {
		t.Error("nil source should error")
	}
	for _, p := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := reconstruct.NewEngine(marg, p); err == nil {
			t.Errorf("p = %v should error", p)
		}
	}
	if _, err := reconstruct.NewEngine(marg, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructBatchMatchesScan(t *testing.T) {
	// Batch-vs-scan equivalence on randomized condition sets: the indexed
	// engine must agree with MLE over a fresh table scan on every set.
	tab, _, eng := engineFixture(t, 2, 400)
	sets := randomSets(stats.NewRand(3), 200)
	got := eng.ReconstructBatch(sets, reconstruct.BatchOptions{})
	empties := 0
	for i, set := range sets {
		counts, size := scanCounts(tab, set)
		if got[i].Err != nil {
			t.Fatalf("set %d: unexpected error %v", i, got[i].Err)
		}
		if got[i].Size != size {
			t.Fatalf("set %d: size %d, scan %d", i, got[i].Size, size)
		}
		if size == 0 {
			empties++
			if got[i].Freqs != nil {
				t.Fatalf("set %d: empty subset should have nil freqs", i)
			}
			continue
		}
		want, err := reconstruct.MLE(counts, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if d := math.Abs(got[i].Freqs[j] - want[j]); d > 1e-12 {
				t.Fatalf("set %d value %d: batch %v, scan MLE %v", i, j, got[i].Freqs[j], want[j])
			}
		}
	}
	if empties == 0 {
		t.Log("warning: no empty subsets drawn; empty-subset path untested here")
	}
}

func TestReconstructBatchWorkerIndependent(t *testing.T) {
	_, _, eng := engineFixture(t, 4, 300)
	sets := randomSets(stats.NewRand(5), 100)
	base := eng.ReconstructBatch(sets, reconstruct.BatchOptions{Workers: 1})
	for _, w := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		got := eng.ReconstructBatch(sets, reconstruct.BatchOptions{Workers: w})
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("batch results differ between 1 and %d workers", w)
		}
	}
}

func TestReconstructBatchPerSetErrors(t *testing.T) {
	_, _, eng := engineFixture(t, 6, 100)
	sets := [][]reconstruct.Condition{
		{{Attr: 0, Value: 0}},
		{{Attr: 0, Value: 0}, {Attr: 1, Value: 0}, {Attr: 2, Value: 0}, {Attr: 0, Value: 1}}, // too deep + duplicate
		nil, // empty condition set: no 0-dim cube
		{{Attr: 0, Value: 99}},
	}
	got := eng.ReconstructBatch(sets, reconstruct.BatchOptions{})
	if got[0].Err != nil || got[0].Freqs == nil {
		t.Errorf("healthy set failed: %+v", got[0])
	}
	for _, i := range []int{1, 2, 3} {
		if got[i].Err == nil {
			t.Errorf("set %d should report an error", i)
		}
	}
}

func TestReconstructBatchClamp(t *testing.T) {
	tab, _, eng := engineFixture(t, 7, 60)
	sets := randomSets(stats.NewRand(8), 150)
	clamped := eng.ReconstructBatch(sets, reconstruct.BatchOptions{Clamp: true})
	raw := eng.ReconstructBatch(sets, reconstruct.BatchOptions{})
	sawNegative := false
	for i := range clamped {
		if clamped[i].Freqs == nil {
			continue
		}
		sum := 0.0
		for j, v := range clamped[i].Freqs {
			if v < 0 {
				t.Fatalf("set %d: clamped entry %d is negative: %v", i, j, v)
			}
			sum += v
			if raw[i].Freqs[j] < 0 {
				sawNegative = true
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("set %d: clamped freqs sum to %v", i, sum)
		}
		// Cross-check against the reference scan + MLEClamped.
		counts, _ := scanCounts(tab, sets[i])
		want, err := reconstruct.MLEClamped(counts, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(clamped[i].Freqs[j]-want[j]) > 1e-12 {
				t.Fatalf("set %d value %d: clamp paths disagree", i, j)
			}
		}
	}
	if !sawNegative {
		t.Error("fixture produced no negative raw MLE entries; clamp untested (shrink the table)")
	}
}

func TestReconstructBatchEmptySubset(t *testing.T) {
	// An empty subset is a valid adversary probe: size 0 and nil freqs with
	// no error, where the public scan Reconstruct errors.
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "A", Values: []string{"a0", "a1"}},
		{Name: "S", Values: []string{"s0", "s1"}},
	}, "S")
	tab := dataset.NewTable(schema, 4)
	for i := 0; i < 4; i++ {
		tab.MustAppendRow(0, uint16(i%2)) // A=a1 never occurs
	}
	marg, err := query.BuildMarginals(tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := reconstruct.NewEngine(marg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	empty := []reconstruct.Condition{{Attr: 0, Value: 1}}
	rec := eng.ReconstructBatch([][]reconstruct.Condition{empty}, reconstruct.BatchOptions{})
	if rec[0].Err != nil || rec[0].Size != 0 || rec[0].Freqs != nil {
		t.Errorf("empty subset reconstruction = %+v, want zero with no error", rec[0])
	}
}

func TestClampSimplex(t *testing.T) {
	f := []float64{0.8, -0.2, 0.4}
	reconstruct.ClampSimplex(f)
	if f[1] != 0 {
		t.Errorf("negative entry survived: %v", f)
	}
	if math.Abs(f[0]+f[2]-1) > 1e-12 || math.Abs(f[0]/f[2]-2) > 1e-12 {
		t.Errorf("renormalization wrong: %v", f)
	}
	// Degenerate all-nonpositive input falls back to uniform.
	g := []float64{-1, -2}
	reconstruct.ClampSimplex(g)
	if g[0] != 0.5 || g[1] != 0.5 {
		t.Errorf("degenerate clamp = %v, want uniform", g)
	}
}

func TestMLEClamped(t *testing.T) {
	counts := []int{9, 1} // small skewed subset: raw MLE goes negative at p=0.5
	raw, err := reconstruct.MLE(counts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if raw[1] >= 0 {
		t.Fatalf("fixture should produce a negative raw entry, got %v", raw)
	}
	clamped, err := reconstruct.MLEClamped(counts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if clamped[1] != 0 || math.Abs(clamped[0]-1) > 1e-12 {
		t.Errorf("clamped = %v, want [1 0]", clamped)
	}
	if _, err := reconstruct.MLEClamped(nil, 0.5); err == nil {
		t.Error("invalid input should propagate the MLE error")
	}
}
