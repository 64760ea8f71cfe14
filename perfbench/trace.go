package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed stage of one request. Spans of one request share Req;
// Parent is the ID of the span that caused this one, or -1 for a root.
// Start and End are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. It is not safe for concurrent use: the
// load and the cold-path replay own one each, and the run merges them at
// the end. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	base  int // first span ID, so merged tracers never share an ID
	spans []span
}

// newTracer returns a tracer whose span IDs start at base.
func newTracer(epoch time.Time, base int) *tracer {
	return &tracer{epoch: epoch, base: base}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(req int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	id := t.base + len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-t.base].End = int64(time.Since(t.epoch))
}

// do runs fn inside a span.
func (t *tracer) do(req int64, parent int, name string, fn func()) {
	id := t.begin(req, parent, name)
	fn()
	t.end(id)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children may nest or overlap each other
// and may stick out of their parent; only the covered part of the parent's
// own interval counts, and time two children share counts once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered int64
		cur := s.Start // everything before cur is already counted
		for _, iv := range ivs {
			lo, hi := max(iv[0], cur), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerStat is one span name's time across a run: how many spans, and one
// sample per request, the self time of every span of that name within the
// request, summed (PerReqDur sums durations instead).
type layerStat struct {
	Calls     int
	PerReq    []float64 // ns
	PerReqDur []float64 // ns
}

// aggregate folds spans into per-name layer statistics.
func aggregate(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	type key struct {
		name string
		req  int64
	}
	perReq := make(map[key]int64)
	perReqDur := make(map[key]int64)
	out := make(map[string]*layerStat)
	var order []key
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Calls++
		k := key{s.Name, s.Req}
		if _, ok := perReq[k]; !ok {
			order = append(order, k)
		}
		perReq[k] += self[i]
		perReqDur[k] += s.End - s.Start
	}
	for _, k := range order {
		st := out[k.name]
		st.PerReq = append(st.PerReq, float64(perReq[k]))
		st.PerReqDur = append(st.PerReqDur, float64(perReqDur[k]))
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
