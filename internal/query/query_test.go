package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/stats"
)

// testTable builds a reproducible random table: public attributes A, B, C
// with domains 3, 2, 4, then the SA attribute S.
func testTable(t *testing.T, seed int64, rows int) *dataset.Table {
	t.Helper()
	return shapeTable(t, seed, rows, []int{3, 2, 4}, 3)
}

// bruteCount scans the table.
func bruteCount(tab *dataset.Table, q Query, withSA bool) int {
	n := 0
	for r := 0; r < tab.NumRows(); r++ {
		row := tab.Row(r)
		ok := true
		for _, c := range q.Conds {
			if row[c.Attr] != c.Value {
				ok = false
				break
			}
		}
		if ok && (!withSA || row[tab.Schema.SA] == q.SA) {
			n++
		}
	}
	return n
}

// shapeTable builds a reproducible random table with public attributes A,
// B, … of the given domains and a five-value SA attribute S inserted at
// position saPos.
func shapeTable(t *testing.T, seed int64, rows int, doms []int, saPos int) *dataset.Table {
	t.Helper()
	doms = append(append(append([]int(nil), doms[:saPos]...), 5), doms[saPos:]...)
	attrs := make([]dataset.Attribute, len(doms))
	for i, d := range doms {
		name := 'A' + rune(i)
		switch {
		case i == saPos:
			name = 'S'
		case i > saPos:
			name--
		}
		attrs[i].Name = string(name)
		for v := 0; v < d; v++ {
			attrs[i].Values = append(attrs[i].Values, fmt.Sprintf("%c%d", name+'a'-'A', v))
		}
	}
	tab := dataset.NewTable(dataset.MustSchema(attrs, "S"), rows)
	rng := rand.New(rand.NewSource(seed))
	row := make([]uint16, len(doms))
	for r := 0; r < rows; r++ {
		for i, d := range doms {
			row[i] = uint16(rng.Intn(d))
		}
		tab.MustAppendRow(row...)
	}
	return tab
}

// subsets returns every subset of na with 1..maxSize attributes, sorted.
func subsets(na []int, maxSize int) [][]int {
	var out [][]int
	var walk func(start int, cur []int)
	walk = func(start int, cur []int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < len(na); i++ {
			walk(i+1, append(cur, na[i]))
		}
	}
	walk(0, nil)
	return out
}

// cellQueries returns one SA=0 query per cell of the subset's cube, with the
// conditions in reverse attribute order so that locate has to sort them.
func cellQueries(s *dataset.Schema, attrs []int) []Query {
	qs := []Query{{}}
	for i := len(attrs) - 1; i >= 0; i-- {
		a := attrs[i]
		var next []Query
		for _, q := range qs {
			for v := 0; v < s.Attrs[a].Domain(); v++ {
				conds := append(append([]Cond(nil), q.Conds...), Cond{Attr: a, Value: uint16(v)})
				next = append(next, Query{Conds: conds})
			}
		}
		qs = next
	}
	return qs
}

// TestMarginalsMatchBruteForce checks every cell of every indexed subset
// against a table scan, on schemas with the SA attribute first, in the
// middle and last, indexed below and at the number of public attributes:
// Count, CountNA, Estimate and AnswerBatch all agree with the scan, and a
// subset deeper than the index errors.
func TestMarginalsMatchBruteForce(t *testing.T) {
	shapes := []struct {
		name   string
		doms   []int
		saPos  int
		maxDim int
	}{
		{"sa-last/full", []int{3, 2, 4}, 3, 3},
		{"sa-last/below", []int{3, 2, 4, 2}, 4, 2},
		{"sa-first/full", []int{3, 2, 4, 2}, 0, 4},
		{"sa-first/below", []int{3, 2, 4, 2}, 0, 1},
		{"sa-middle/full", []int{2, 3, 2, 4}, 2, 4},
		{"sa-middle/below", []int{2, 3, 2, 4, 3}, 1, 3},
	}
	const p = 0.5
	for i, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			tab := shapeTable(t, int64(i+1), 600, sh.doms, sh.saPos)
			mg, err := BuildMarginals(tab, sh.maxDim)
			if err != nil {
				t.Fatal(err)
			}
			if mg.Total() != 600 {
				t.Fatalf("Total = %d", mg.Total())
			}
			m := tab.Schema.SADomain()
			na := tab.Schema.NAIndices()
			var qs []Query
			for _, attrs := range subsets(na, sh.maxDim) {
				for _, cell := range cellQueries(tab.Schema, attrs) {
					size := bruteCount(tab, cell, false)
					if got, err := mg.CountNA(cell.Conds); err != nil || got != size {
						t.Fatalf("CountNA %v = %d, %v; scan %d", cell.Conds, got, err, size)
					}
					for sa := 0; sa < m; sa++ {
						q := Query{Conds: cell.Conds, SA: uint16(sa)}
						obs := bruteCount(tab, q, true)
						want := 0.0
						if size > 0 {
							want = float64(size) * reconstruct.MLEValue(obs, size, p, m)
						}
						if got, err := mg.Count(q); err != nil || got != obs {
							t.Fatalf("Count %v = %d, %v; scan %d", q, got, err, obs)
						}
						if got, err := mg.Estimate(q, p); err != nil || math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("Estimate %v = %v, %v; scan %v", q, got, err, want)
						}
						if got, err := mg.Estimate(q, 1); err != nil || got != float64(obs) {
							t.Fatalf("Estimate %v at p=1 = %v, %v; scan %d", q, got, err, obs)
						}
						qs = append(qs, q)
					}
				}
			}
			for i, a := range mg.AnswerBatch(qs, p, 0) {
				want, _ := mg.Estimate(qs[i], p)
				if a.Err != nil || a.Count != bruteCount(tab, qs[i], true) || math.Float64bits(a.Estimate) != math.Float64bits(want) {
					t.Fatalf("AnswerBatch %v = %+v; scan count %d, estimate %v", qs[i], a, bruteCount(tab, qs[i], true), want)
				}
			}
			if sh.maxDim < len(na) {
				deep := cellQueries(tab.Schema, na[:sh.maxDim+1])[0]
				if _, err := mg.Count(deep); err == nil {
					t.Fatalf("Count over %d attributes with MaxDim %d did not error", len(deep.Conds), sh.maxDim)
				}
				if _, err := mg.CountNA(deep.Conds); err == nil {
					t.Fatal("CountNA beyond MaxDim did not error")
				}
				if _, err := mg.Estimate(deep, p); err == nil {
					t.Fatal("Estimate beyond MaxDim did not error")
				}
				if a := mg.AnswerBatch([]Query{deep}, p, 1); a[0].Err == nil {
					t.Fatal("AnswerBatch beyond MaxDim did not error")
				}
			}
		})
	}
}

// TestCubeOrderIsPackedKeyOrder pins the cube layout that every checksum
// folds: newMarginals places cubes at their combinadic rank, and that order
// must be the ascending packed subset-key order, whatever the schema shape.
func TestCubeOrderIsPackedKeyOrder(t *testing.T) {
	// subsetKey packs a sorted attribute subset into a uint64: one byte per
	// attribute index, 0xFF padding unused slots.
	subsetKey := func(attrs []int) uint64 {
		var k uint64 = ^uint64(0)
		for i, a := range attrs {
			shift := uint(8 * i)
			k = (k &^ (uint64(0xFF) << shift)) | uint64(a)<<shift
		}
		return k
	}
	for _, sh := range []struct {
		doms          []int
		saPos, maxDim int
	}{
		{[]int{3, 2, 4}, 3, 3},
		{[]int{2, 2, 2, 2, 2, 2, 2}, 0, 4},
		{[]int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 5, 8},
		{[]int{3, 2, 4, 2, 2}, 2, 2},
	} {
		tab := shapeTable(t, 1, 0, sh.doms, sh.saPos)
		mg, err := BuildMarginals(tab, sh.maxDim)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(subsets(tab.Schema.NAIndices(), sh.maxDim)); len(mg.cubes) != want {
			t.Fatalf("%v: %d cubes, want %d", sh, len(mg.cubes), want)
		}
		for i := 1; i < len(mg.cubes); i++ {
			if subsetKey(mg.cubes[i-1].attrs) >= subsetKey(mg.cubes[i].attrs) {
				t.Fatalf("%v: cube %d %v does not follow cube %d %v in key order",
					sh, i, mg.cubes[i].attrs, i-1, mg.cubes[i-1].attrs)
			}
		}
	}
}

func TestMarginalsFromGroupsMatchTable(t *testing.T) {
	tab := testTable(t, 3, 1500)
	fromTable, err := BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	fromGroups, err := BuildMarginalsFromGroups(dataset.GroupsOf(tab), 3)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Conds: []Cond{{Attr: 0, Value: 1}, {Attr: 2, Value: 3}}, SA: 2}
	a, err1 := fromTable.Count(q)
	b, err2 := fromGroups.Count(q)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a != b {
		t.Errorf("table-built %d != group-built %d", a, b)
	}
	if fromGroups.Total() != fromTable.Total() {
		t.Error("totals differ")
	}
}

// TestMarginalsErrors checks that every invalid query is refused by every
// answering method with the same error, and never answered from some other
// cube: the attribute checks matter because the binary wire path carries raw
// uint16 attribute codes.
func TestMarginalsErrors(t *testing.T) {
	tab := testTable(t, 4, 100)
	mg, err := BuildMarginals(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	nine := make([]Cond, 9)
	for i := range nine {
		nine[i] = Cond{Attr: i}
	}
	for _, tc := range []struct {
		name  string
		q     Query
		want  string
		saErr bool // the conditions are valid; only the SA value is not
	}{
		{"no conditions", Query{}, "query: at least one NA condition is required", false},
		{"beyond MaxDim", Query{Conds: []Cond{{Attr: 0}, {Attr: 1}, {Attr: 2}}},
			"query: 3 conditions exceed the indexed maximum 2", false},
		{"nine conditions", Query{Conds: nine}, "query: 9 conditions exceed the indexed maximum 2", false},
		{"duplicate attribute", Query{Conds: []Cond{{Attr: 0, Value: 0}, {Attr: 0, Value: 1}}},
			"query: duplicate condition on attribute 0", false},
		{"value out of domain", Query{Conds: []Cond{{Attr: 0, Value: 99}}},
			"query: value 99 out of domain for attribute 0", false},
		{"SA attribute", Query{Conds: []Cond{{Attr: 3, Value: 0}}}, "query: no cube for attribute set [3]", false},
		{"SA attribute in a pair", Query{Conds: []Cond{{Attr: 3, Value: 0}, {Attr: 1, Value: 0}}},
			"query: no cube for attribute set [1 3]", false},
		{"attribute -1", Query{Conds: []Cond{{Attr: -1}}}, "query: attribute index -1 out of schema range [0,4)", false},
		{"attribute NumAttrs", Query{Conds: []Cond{{Attr: 4}}}, "query: attribute index 4 out of schema range [0,4)", false},
		{"attribute 300", Query{Conds: []Cond{{Attr: 1}, {Attr: 300}}},
			"query: attribute index 300 out of schema range [0,4)", false},
		{"SA out of domain", Query{Conds: []Cond{{Attr: 0, Value: 0}}, SA: 99}, "query: SA value 99 out of domain", true},
	} {
		errs := map[string]error{}
		_, errs["Count"] = mg.Count(tc.q)
		_, errs["Estimate"] = mg.Estimate(tc.q, 0.5)
		errs["AnswerBatch"] = mg.AnswerBatch([]Query{tc.q}, 0.5, 1)[0].Err
		if !tc.saErr {
			_, errs["CountNA"] = mg.CountNA(tc.q.Conds)
			_, errs["SubsetCountsInto"] = mg.SubsetCountsInto(tc.q.Conds, make([]int, 5))
		}
		for method, err := range errs {
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: %s error %v, want %q", tc.name, method, err, tc.want)
			}
		}
	}
	if _, err := BuildMarginals(tab, 0); err == nil {
		t.Error("maxDim 0 should error")
	}
}

func TestEstimateMatchesManualMLE(t *testing.T) {
	tab := testTable(t, 5, 3000)
	mg, err := BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Conds: []Cond{{Attr: 1, Value: 0}}, SA: 3}
	p := 0.5
	est, err := mg.Estimate(q, p)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := mg.CountNA(q.Conds)
	obs, _ := mg.Count(q)
	want := float64(size) * reconstruct.MLEValue(obs, size, p, 5)
	if math.Abs(est-want) > 1e-9 {
		t.Errorf("Estimate = %v, want %v", est, want)
	}
}

func TestEstimateEmptySubset(t *testing.T) {
	s := dataset.MustSchema([]dataset.Attribute{
		{Name: "A", Values: []string{"a0", "a1"}},
		{Name: "S", Values: []string{"s0", "s1"}},
	}, "S")
	tab := dataset.NewTable(s, 1)
	tab.MustAppendRow(0, 0)
	mg, err := BuildMarginals(tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := mg.Estimate(Query{Conds: []Cond{{Attr: 0, Value: 1}}, SA: 0}, 0.5)
	if err != nil || est != 0 {
		t.Errorf("empty subset estimate = %v, %v; want 0, nil", est, err)
	}
}

func TestQueryFormat(t *testing.T) {
	tab := testTable(t, 6, 1)
	q := Query{Conds: []Cond{{Attr: 0, Value: 1}}, SA: 2}
	got := q.Format(tab.Schema)
	want := "A=a1 ∧ S=s2"
	if got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

func TestGeneratePoolRespectsConstraints(t *testing.T) {
	tab := testTable(t, 7, 5000)
	mg, err := BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := PoolOptions{Size: 300, MaxDim: 3, MinSelectivity: 0.002}
	pool, err := GeneratePool(stats.NewRand(8), mg, mg, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Queries) != 300 || len(pool.Answers) != 300 {
		t.Fatalf("pool size = %d", len(pool.Queries))
	}
	for i, q := range pool.Queries {
		if len(q.Conds) < 1 || len(q.Conds) > 3 {
			t.Fatalf("query %d has %d conditions", i, len(q.Conds))
		}
		ans, err := mg.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if ans != pool.Answers[i] {
			t.Fatalf("cached answer %d != %d", pool.Answers[i], ans)
		}
		if float64(ans)/5000 < opts.MinSelectivity {
			t.Fatalf("query %d selectivity below threshold", i)
		}
	}
}

func TestGeneratePoolTranslatesValues(t *testing.T) {
	// Build a table, then a merged version where attribute A collapses to
	// one value; pool queries must carry generalized codes valid for the
	// merged schema.
	tab := testTable(t, 9, 4000)
	mapping := dataset.ValueMapping{
		Attr:      0,
		OldToNew:  []uint16{0, 0, 0},
		NewValues: []string{"a0|a1|a2"},
	}
	merged, err := dataset.Remap(tab, []dataset.ValueMapping{mapping})
	if err != nil {
		t.Fatal(err)
	}
	origMarg, err := BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	genMarg, err := BuildMarginals(merged, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := GeneratePool(stats.NewRand(10), origMarg, genMarg,
		[]dataset.ValueMapping{mapping}, PoolOptions{Size: 200, MaxDim: 3, MinSelectivity: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range pool.Queries {
		for _, c := range q.Conds {
			if c.Attr == 0 && c.Value != 0 {
				t.Fatal("attribute A values must be translated to the merged code")
			}
		}
		// Answers must be computed on the generalized data.
		ans, err := genMarg.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		_ = ans
	}
}

func TestGeneratePoolUnreachableSelectivity(t *testing.T) {
	tab := testTable(t, 11, 100)
	mg, err := BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = GeneratePool(stats.NewRand(12), mg, mg, nil,
		PoolOptions{Size: 50, MaxDim: 3, MinSelectivity: 0.9, MaxTries: 2000})
	if err == nil {
		t.Error("unreachable selectivity should exhaust MaxTries and error")
	}
}

func TestPoolEvaluateNearZeroAtHighRetention(t *testing.T) {
	// With p → 1 the estimator inverts almost nothing, so evaluating the
	// pool against the raw data itself gives near-zero error.
	tab := testTable(t, 13, 5000)
	mg, err := BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := GeneratePool(stats.NewRand(14), mg, mg, nil,
		PoolOptions{Size: 100, MaxDim: 3, MinSelectivity: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pool.Evaluate(mg, 0.999999)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgError > 1e-3 {
		t.Errorf("self-evaluation error = %v, want ~0", rep.AvgError)
	}
	if rep.Queries != 100 {
		t.Errorf("Queries = %d", rep.Queries)
	}
}

func TestPoolEvaluateErrors(t *testing.T) {
	empty := &Pool{}
	tab := testTable(t, 15, 10)
	mg, err := BuildMarginals(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Evaluate(mg, 0.5); err == nil {
		t.Error("empty pool should error")
	}
	bad := &Pool{Queries: []Query{{Conds: []Cond{{Attr: 0, Value: 0}}, SA: 0}}, Answers: []int{0}}
	if _, err := bad.Evaluate(mg, 0.5); err == nil {
		t.Error("zero true answer should error")
	}
}

func TestGeneratePoolOptionValidation(t *testing.T) {
	tab := testTable(t, 16, 100)
	mg, err := BuildMarginals(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GeneratePool(stats.NewRand(1), mg, mg, nil, PoolOptions{Size: 0}); err == nil {
		t.Error("size 0 should error")
	}
	if _, err := GeneratePool(stats.NewRand(1), mg, mg, nil, PoolOptions{Size: 1, MinSelectivity: -0.1}); err == nil {
		t.Error("negative selectivity should error")
	}
	if _, err := GeneratePool(stats.NewRand(1), mg, mg, nil, PoolOptions{Size: 1, MaxDim: 3}); err == nil {
		t.Error("pool dim beyond indexed dim should error")
	}
}
