package main

import (
	"fmt"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/stats"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// loadConn is the closed loop's state in one set-up or load phase.
type loadConn struct {
	*conn
	t       *tally
	tracer  *tracer // the phase's spans; nil when untraced
	tr      *tracer // tracer while tracing the current request, else nil
	led     ledger  // shared by the phases on one server: the server keeps its ledger
	rng     *stats.Rand
	samples map[string][]float64 // derived per-request layer samples (traced)
	seq     int64
	rp      replay
	qresp   wire.QueryResp // the last binary /query response, decoded
	// Request scratch, reused so the load generator allocates little.
	idx   []int
	wqs   []wire.Query
	frame []byte
}

// pick draws n queries from pool into the connection's scratch and returns
// their pool indexes, valid until the next pick.
func (lc *loadConn) pick(pool *queryPool, n int) []int {
	lc.idx, lc.wqs = lc.idx[:0], lc.wqs[:0]
	for i := 0; i < n; i++ {
		j := lc.rng.Intn(len(pool.qs))
		lc.idx = append(lc.idx, j)
		lc.wqs = append(lc.wqs, pool.qs[j])
	}
	return lc.idx
}

// encode frames the picked queries as one binary /query request, valid
// until the next encode.
func (lc *loadConn) encode(id, client string) []byte {
	m := wire.QueryReq{ID: []byte(id), Client: []byte(client), Queries: lc.wqs}
	lc.frame = m.Append(lc.frame[:0])
	return lc.frame
}

// at switches tracing on for the timed phase of a traced load and off for
// every other phase; it is called at the start of every request.
func (lc *loadConn) at(phase int) {
	lc.tr = nil
	if phase == phaseTimed {
		lc.tr = lc.tracer
	}
}

// newLoadConn opens a connection to base for one phase, counting into t.
// Each phase draws its inputs from its own stream, so no request body
// repeats within a run.
func newLoadConn(base string, seed, stream int64, t *tally, traced bool, led ledger) *loadConn {
	lc := &loadConn{conn: newConn(base), t: t, led: led,
		rng: stats.NewRand(seed*7919 + stream*104729), samples: map[string][]float64{}}
	if traced {
		lc.tracer = newTracer(time.Now(), 0)
	}
	return lc
}

// nextReq returns a run-unique request id.
func (lc *loadConn) nextReq() int64 {
	lc.seq++
	return lc.seq
}

// sample records one derived per-request layer sample.
func (lc *loadConn) sample(name string, v float64) {
	lc.samples[name] = append(lc.samples[name], v)
}

// replay is the loop's scratch for replaying a binary /query request's
// server-side stages in process: decode, budget charge, code mapping, cube
// lookups and encode, in the order the handler runs them.
type replay struct {
	req  wire.QueryReq
	qs   []query.Query
	ans  []query.Answer
	wans []wire.Answer
	out  []byte
}

// binaryQuery replays frame against pub under the root span and returns
// the cube-lookup time per query.
func (r *replay) binaryQuery(tr *tracer, rid int64, root int, pub *serve.Publication, mgr *budget.Manager, frame []byte) (nsPerQuery float64, err error) {
	tr.do(rid, root, "wire.decode", func() { err = r.req.Decode(frame) })
	if err != nil {
		return 0, err
	}
	n := len(r.req.Queries)
	tr.do(rid, root, "budget.charge", func() { mgr.Charge(string(r.req.Client), pub.ID, int64(n), budget.ClassQuery) })
	tr.do(rid, root, "serve.map", func() {
		r.qs = r.qs[:0]
		for i := range r.req.Queries {
			q := &r.req.Queries[i]
			if err = pub.MapConds(q.Conds); err == nil {
				err = pub.MapSA(q.SA)
			}
			if err != nil {
				return
			}
			r.qs = append(r.qs, query.Query{Conds: q.Conds, SA: q.SA})
		}
	})
	if err != nil {
		return 0, fmt.Errorf("replaying a query frame: %w", err)
	}
	start := time.Now()
	tr.do(rid, root, "query.answer", func() { r.ans = pub.Marg.AnswerBatchInto(r.ans, r.qs, pub.Req.P, 0) })
	nsPerQuery = float64(time.Since(start).Nanoseconds()) / float64(n)
	tr.do(rid, root, "wire.encode", func() {
		r.wans = r.wans[:0]
		for i := range r.ans {
			r.wans = append(r.wans, wire.Answer{Count: int64(r.ans[i].Count), Estimate: r.ans[i].Estimate})
		}
		resp := wire.QueryResp{ID: r.req.ID, Client: r.req.Client, Answers: r.wans}
		resp.Charged = uint64(n)
		r.out = resp.Append(r.out[:0])
	})
	return nsPerQuery, nil
}

// newReplayBudget is the in-process budget manager traced runs charge:
// enforcement off, as on the servers under test.
func newReplayBudget() *budget.Manager {
	return budget.New(budget.Config{Quota: -1})
}
