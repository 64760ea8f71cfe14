package main

import (
	"fmt"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/stats"
)

// paper-batch: the paper's Section 6.1 workload at line rate. One rpserve
// holds the CENSUS 300K SPS publication (default parameters); one
// connection sends fresh 5,000-query binary /query frames. One connection,
// because two spread the throughput far more on a 2-core machine. The batch
// size and the query shape are the paper's; the 40,000-query pool is a
// choice, large enough that no two batches coincide.
const (
	batchQueries = 5000
	batchPool    = 40000 // distinct queries batches are drawn from
	learner      = "learner"
)

// paperBatch is the workload's shared state.
type paperBatch struct {
	ref  *reference
	pool *queryPool
	mgr  *budget.Manager
}

func runPaperBatch(e *env) (*outcome, error) {
	req := serve.PublishRequest{Dataset: serve.DatasetCensus, Size: 300000}
	o := newOutcome()
	if e.trace {
		if _, _, err := replayCold(o, req); err != nil {
			return nil, err
		}
	}
	ref, err := newReference(req)
	if err != nil {
		return nil, err
	}
	pool, err := newPool(stats.NewRand(e.seed), ref, batchPool)
	if err != nil {
		return nil, err
	}
	w := &paperBatch{ref: ref, pool: pool, mgr: newReplayBudget()}

	args := []string{"-budget", "-1", "-preload", "census:300000"}
	o.flags = args
	var led ledger
	srv, err := setUp(e, o, e.rpserve, "rpserve", args, func(s *server, k int) error {
		led = ledger{}
		lc := newLoadConn(s.Base, e.seed, int64(-1-k), o.tally, false, led)
		defer lc.close()
		return w.step(lc, phaseSetup)
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	if err := load(e, o, srv.Base, led, w.step, nil, "http.outside_us"); err != nil {
		return nil, err
	}

	// The served publication must be the reference, bit for bit.
	c := newConn(srv.Base)
	defer c.close()
	var dg struct {
		Digest string `json:"digest"`
	}
	if err := c.getJSON("/digest?id="+ref.pub.ID, &dg); err != nil {
		return nil, err
	}
	if want := ref.pub.Digest(); dg.Digest != want {
		return nil, fmt.Errorf("/digest %s, reference %s", dg.Digest, want)
	}
	var st struct {
		Clients int `json:"clients"`
	}
	if err := c.getJSON("/statsz", &st); err != nil {
		return nil, err
	}
	o.layers["budget.tracked"] = float64(st.Clients)
	o.checkLog = append(o.checkLog,
		"every answer equals the in-process reference (count and estimate, bit for bit)",
		"client_queries equals the charged total on every response",
		"/digest equals the reference Publication.Digest")
	if o.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	return o, srv.stop()
}

// step sends one fresh 5,000-query batch and checks every answer.
func (w *paperBatch) step(lc *loadConn, phase int) error {
	lc.at(phase)
	rid := lc.nextReq()
	root := lc.tr.begin(rid, -1, "request")
	idx := lc.pick(w.pool, batchQueries)
	frame := lc.encode(w.ref.pub.ID, learner)

	hid := lc.tr.begin(rid, root, "http")
	status, lat, err := lc.post("/query", true, frame)
	lc.tr.end(hid)
	end := time.Now()
	if !lc.t.outcome(phase, opQuery, status, err) {
		lc.led[learner] = unknown
		lc.tr.end(root)
		return nil
	}
	cid := lc.tr.begin(rid, root, "loadgen.check")
	serveUS, err := checkQuery(lc, w.pool, w.ref.pub.ID, learner, idx, true)
	lc.tr.end(cid)
	if err != nil {
		return err
	}
	if phase == phaseTimed {
		lc.t.record(opQuery, lat, serveUS, batchQueries, end)
		lc.t.bytesOut += int64(len(frame))
		lc.t.bytesIn += int64(lc.buf.Len())
		lc.t.nBytes++
	}
	if lc.tr != nil {
		ns, err := lc.rp.binaryQuery(lc.tr, rid, root, w.ref.pub, w.mgr, frame)
		if err != nil {
			return err
		}
		lc.sample("query.ns_per_query", ns)
	}
	lc.tr.end(root)
	return nil
}
