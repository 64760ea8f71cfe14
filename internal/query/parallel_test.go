package query

import (
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"github.com/reconpriv/reconpriv/internal/dataset"
)

// requireSameMarginals asserts two engines hold identical cubes and planes.
func requireSameMarginals(t *testing.T, want, got *Marginals, workers int) {
	t.Helper()
	if got.Total() != want.Total() || got.MaxDim != want.MaxDim {
		t.Fatalf("workers=%d: total/maxdim = %d/%d, want %d/%d",
			workers, got.Total(), got.MaxDim, want.Total(), want.MaxDim)
	}
	if !reflect.DeepEqual(got.cubes, want.cubes) {
		t.Fatalf("workers=%d: cube layouts differ", workers)
	}
	for i := range want.cubes {
		wc, ws := want.planes(&want.cubes[i])
		gc, gs := got.planes(&got.cubes[i])
		if !reflect.DeepEqual(wc, gc) || !reflect.DeepEqual(ws, gs) {
			t.Fatalf("workers=%d: cube planes differ for attrs %v", workers, want.cubes[i].attrs)
		}
	}
}

func buildWorkerSweep() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0), 0, 64}
}

func TestBuildMarginalsParallelMatchesSequential(t *testing.T) {
	tab := testTable(t, 5, 4000)
	want, err := BuildMarginals(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range buildWorkerSweep() {
		got, err := BuildMarginalsParallel(tab, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMarginals(t, want, got, workers)
	}
}

func TestBuildMarginalsFromGroupsParallelMatchesSequential(t *testing.T) {
	tab := testTable(t, 9, 4000)
	gs := dataset.GroupsOf(tab)
	want, err := BuildMarginalsFromGroups(gs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range buildWorkerSweep() {
		got, err := BuildMarginalsFromGroupsParallel(gs, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMarginals(t, want, got, workers)
	}
	// Group-built and row-built cubes agree (the counts are the same sums).
	fromRows, err := BuildMarginalsParallel(tab, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMarginals(t, fromRows, want, -1)
}

func TestBuildMarginalsEmptyTableParallel(t *testing.T) {
	tab := testTable(t, 1, 0)
	for _, workers := range []int{1, 4} {
		mg, err := BuildMarginalsParallel(tab, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		if mg.Total() != 0 {
			t.Fatalf("workers=%d: total = %d", workers, mg.Total())
		}
	}
}

func TestNewMarginalsRejectsWideSchemas(t *testing.T) {
	// 300 attributes cannot be packed into one-byte cube-key slots; the
	// builder must fail loudly instead of aliasing cube keys.
	attrs := make([]dataset.Attribute, 300)
	for i := range attrs {
		attrs[i] = dataset.Attribute{Name: "a" + strconv.Itoa(i), Values: []string{"x", "y"}}
	}
	s, err := dataset.NewSchema(attrs, attrs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	tab := dataset.NewTable(s, 0)
	_, err = BuildMarginals(tab, 2)
	var limit *IndexLimitError
	if !errors.As(err, &limit) {
		t.Fatalf("want *IndexLimitError, got %v", err)
	}
	if limit.Attrs != 300 {
		t.Errorf("limit.Attrs = %d, want 300", limit.Attrs)
	}
}

func TestNewMarginalsRejectsDeepIndexes(t *testing.T) {
	// Twelve public attributes with maxDim 12: the effective depth exceeds
	// the eight one-byte slots of the packed subset key.
	attrs := make([]dataset.Attribute, 13)
	for i := range attrs {
		attrs[i] = dataset.Attribute{Name: string(rune('a' + i)), Values: []string{"x", "y"}}
	}
	s, err := dataset.NewSchema(attrs, "a")
	if err != nil {
		t.Fatal(err)
	}
	tab := dataset.NewTable(s, 0)
	_, err = BuildMarginals(tab, 12)
	var limit *IndexLimitError
	if !errors.As(err, &limit) {
		t.Fatalf("want *IndexLimitError, got %v", err)
	}
	if limit.MaxDim != 12 {
		t.Errorf("limit.MaxDim = %d, want 12", limit.MaxDim)
	}
	// A shallow index over the same schema is fine (the old clamping
	// behavior survives for requests that cannot corrupt keys).
	if _, err := BuildMarginals(tab, 3); err != nil {
		t.Errorf("maxDim 3 should build: %v", err)
	}
}
