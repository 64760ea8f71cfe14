package main

import (
	"testing"
	"time"
)

// sp builds a span for the self-time tests.
func sp(id, parent int, start, end int64) span {
	return span{Name: "s", Req: 1, ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		sp(0, -1, 0, 100), // root
		sp(1, 0, 10, 40),  // child
		sp(2, 1, 15, 25),  // grandchild: covers part of the child, not the root
		sp(3, 0, 50, 60),  // second child
	}
	want := []int64{100 - 30 - 10, 30 - 10, 10, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self %d, want %d", i, got, want[i])
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	for _, c := range []struct {
		name string
		kids [][2]int64
		want int64
	}{
		{"overlap counted once", [][2]int64{{10, 50}, {30, 70}}, 100 - 60},
		{"child inside child", [][2]int64{{10, 80}, {20, 30}}, 100 - 70},
		{"unsorted", [][2]int64{{60, 70}, {10, 20}, {15, 25}}, 100 - 25},
		{"sticking out on both sides", [][2]int64{{-20, 10}, {90, 130}}, 100 - 20},
		{"outside entirely", [][2]int64{{100, 120}, {-10, 0}}, 100},
		{"covers the parent", [][2]int64{{0, 100}, {40, 60}}, 0},
		{"touching", [][2]int64{{10, 20}, {20, 30}}, 100 - 20},
	} {
		spans := []span{sp(7, -1, 0, 100)}
		for i, k := range c.kids {
			spans = append(spans, sp(8+i, 7, k[0], k[1]))
		}
		if got := selfTimes(spans)[0]; got != c.want {
			t.Errorf("%s: root self %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAggregatePerRequest checks that spans of one name within one request
// sum into a single per-request sample, and that calls count every span.
func TestAggregatePerRequest(t *testing.T) {
	spans := []span{
		{Name: "root", Req: 1, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "json", Req: 1, ID: 1, Parent: 0, Start: 0, End: 10},
		{Name: "json", Req: 1, ID: 2, Parent: 0, Start: 90, End: 100},
		{Name: "root", Req: 2, ID: 3, Parent: -1, Start: 200, End: 250},
		{Name: "json", Req: 2, ID: 4, Parent: 3, Start: 200, End: 230},
	}
	agg := aggregate(spans)
	j := agg["json"]
	if j.Calls != 3 || len(j.PerReq) != 2 || j.PerReq[0] != 20 || j.PerReq[1] != 30 {
		t.Fatalf("json stat %+v, want 3 calls, per request [20 30]", j)
	}
	r := agg["root"]
	if r.PerReq[0] != 80 || r.PerReq[1] != 20 || r.PerReqDur[0] != 100 || r.PerReqDur[1] != 50 {
		t.Fatalf("root stat %+v, want self [80 20], durations [100 50]", r)
	}
}

func TestTracerRecordsParentsAndNilIsInert(t *testing.T) {
	tr := newTracer(time.Now(), 5)
	root := tr.begin(9, -1, "request")
	tr.do(9, root, "child", func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[0].ID != 5 || tr.spans[1].Parent != 5 || tr.spans[1].Req != 9 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if s := tr.spans[0]; s.End < s.Start || tr.spans[1].Start < s.Start || tr.spans[1].End > s.End {
		t.Fatalf("child %+v does not nest in root %+v", tr.spans[1], s)
	}
	var off *tracer
	ran := false
	off.do(1, off.begin(1, -1, "x"), "y", func() { ran = true })
	if !ran {
		t.Fatal("a nil tracer must still run the traced function")
	}
}
