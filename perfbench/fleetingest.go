package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/stats"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// fleet-ingest: the write path and reads of the moving publication.
// rpfleet -procs (3 spawned replicas, rf 2) holds one ADULT incremental
// publication; one connection sends binary /insert frames of insertBatch
// records and binary reads of ingestReadQueries queries, interleaved, 4
// inserts to every 3 reads.
//
// Where the traffic's shape comes from:
//   - 4 inserts to 3 reads: the simulated cross-process fleet-ingest
//     scenario (internal/sim "fleet-ingest": Mix{Query: 3, Insert: 4}),
//     without its refreshes, which this workload does not send.
//   - 50 records per insert: the simulated ingest scenario's
//     RecordsPerInsert.
//   - Unverified assumption, with no measured source: 300 queries per read
//     (a few hundred).
//
// One connection, not a writer and a reader racing on two: on a 2-vCPU
// Xeon VM the two-connection throughput spread 19-28% between ten-run sets
// made minutes apart, beyond the 25% bound, as two connections did on
// fleet-read. Reads still meet the replicas' background compaction, and a
// slower write path lowers the reads per second the loop completes. The
// load and the fleet share one CPU (pinFleet): four runs interleaved with
// unpinned ones in the same minutes read 872-908 requests per second,
// against 730-914 unpinned.
const (
	insertBatch       = 50
	ingestReadQueries = 300
	ingestCycle       = 7 // requests per cycle: inserts at even positions, reads at odd
	ingestPool        = 4000
	finalReadQueries  = 2000
	replayChunk       = 200 // acknowledged batches per replayed frame
	writer            = "ingest"
	reader            = "reader"
	// checkpointEvery and compactEvery are rpfleet's -checkpoint-log and
	// serve's CompactEvery defaults, the cadence the traced replay copies.
	checkpointEvery = 64
	compactEvery    = 8
)

// fleetIngest is the workload's shared state.
type fleetIngest struct {
	req    serve.PublishRequest
	ref    *reference // copy A: the check's replay target, and a holder in traced runs
	pool   *queryPool
	source *dataset.Table // records inserts are drawn from
	base   int            // records in the publication before any insert

	acked   [][]byte // acknowledged insert frames, in order
	applied int      // acked frames applied to the in-process copies
	live    bool     // the copies follow every acknowledged batch (traced phase)
	records int      // acknowledged records
	trials  int      // perturbation trials those records spent

	// Traced runs only: copy B, the second holder, and copy C, the stage
	// replay's streaming publisher and marginal stack.
	holderB  *serve.Server
	handlerA http.Handler
	handlerB http.Handler
	inc      *core.Incremental
	marg     *query.Marginals
	ireq     wire.InsertReq
	key      []uint16
	mgr      *budget.Manager
}

func runFleetIngest(e *env) (*outcome, error) {
	o := newOutcome()
	req := serve.PublishRequest{Dataset: serve.DatasetAdult, Method: serve.MethodIncremental}
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	w := &fleetIngest{req: req, mgr: newReplayBudget()}
	var err error
	if e.trace {
		if w.inc, w.marg, err = replayCold(o, req); err != nil {
			return nil, err
		}
		w.holderB = serve.New(serve.Config{BudgetQuota: -1})
		if _, _, err := w.holderB.Publish(req, true); err != nil {
			return nil, err
		}
		w.handlerB = w.holderB.Handler()
	}
	if w.ref, err = newReference(req); err != nil {
		return nil, err
	}
	w.handlerA = w.ref.srv.Handler()
	if w.pool, err = newPool(stats.NewRand(e.seed), w.ref, ingestPool); err != nil {
		return nil, err
	}
	w.base = w.ref.raw.NumRows()
	// Inserted records follow ADULT's own distribution: rows of another
	// generated ADULT table, drawn with replacement.
	w.source = datagen.Adult(1000 + e.seed)

	unpin, err := pinFleet(o)
	if err != nil {
		return nil, err
	}
	defer unpin() // on error paths; the last return checks it
	args := append([]string{"-procs"}, fleetArgs...)
	o.flags = args
	var led ledger
	srv, err := setUp(e, o, e.rpfleet, "rpfleet", args, func(s *server, k int) error {
		led = ledger{}
		lc := newLoadConn(s.Base, e.seed, int64(-1-k), o.tally, false, led)
		defer lc.close()
		if err := publishOn(s, req); err != nil {
			return err
		}
		return w.read(lc, phaseSetup)
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	step := func(lc *loadConn, ph int) error {
		if lc.seq%ingestCycle%2 == 0 {
			return w.write(lc, ph)
		}
		return w.read(lc, ph)
	}
	if err := load(e, o, srv.Base, led, step, w.catchUp, "fleet.outside_us"); err != nil {
		return nil, err
	}
	if e.trace {
		st := w.ref.srv.Stats()
		if st.IngestAppends > 0 {
			o.layers["serve.compactions_per_append"] = float64(st.Compactions) / float64(st.IngestAppends)
		}
	}
	if w.records > 0 {
		o.layers["core.trial_frac"] = float64(w.trials) / float64(w.records)
	}

	if err := w.finalCheck(srv); err != nil {
		return nil, err
	}
	st, err := routerStats(srv)
	if err != nil {
		return nil, err
	}
	if int(st.InsertsRouted) != len(w.acked) {
		return nil, fmt.Errorf("router logged %d insert batches, %d were acknowledged", st.InsertsRouted, len(w.acked))
	}
	routerLayerValues(o, st)
	if st.InsertsRouted > 0 {
		o.layers["fleet.checkpoints_per_kinsert"] = 1000 * float64(st.Checkpoints) / float64(st.InsertsRouted)
	}
	o.checkLog = append(o.checkLog,
		"every insert's total_records equals base plus the acknowledged records",
		fmt.Sprintf("a final read of %d queries equals an in-process replay of the %d acknowledged batches", finalReadQueries, len(w.acked)),
		"the router logged exactly the acknowledged insert batches",
		"the reader's client_queries equals its charged total on every response")
	if o.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return o, unpin()
}

// publishOn publishes req through a server's POST /publish, which for the
// fleet places it on its holders and waits for both builds.
func publishOn(s *server, req serve.PublishRequest) error {
	c := newConn(s.Base)
	defer c.close()
	req.Wait = true
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, _, err := c.post("/publish", false, body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/publish: status %d: %s", status, c.buf.Bytes())
	}
	return err
}

// write streams one insert frame of fresh records and checks the
// acknowledgement.
func (w *fleetIngest) write(lc *loadConn, phase int) error {
	lc.at(phase)
	rid := lc.nextReq()
	root := lc.tr.begin(rid, -1, "request")
	defer lc.tr.end(root)
	recs := make([][]uint16, insertBatch)
	for i := range recs {
		recs[i] = w.source.Row(lc.rng.Intn(w.source.NumRows()))
	}
	m := wire.InsertReq{ID: []byte(w.ref.pub.ID), Client: []byte(writer), NAttrs: w.source.Schema.NumAttrs(), Records: recs}
	frame := m.Append(nil)

	hid := lc.tr.begin(rid, root, "http")
	status, lat, err := lc.post("/insert", true, frame)
	lc.tr.end(hid)
	end := time.Now()
	if !lc.t.outcome(phase, opInsert, status, err) {
		// An unacknowledged batch may have reached some holders, so the
		// exact replay check below can no longer hold.
		return fmt.Errorf("insert failed (status %d, %v): the replay check needs every batch acknowledged", status, err)
	}
	cid := lc.tr.begin(rid, root, "loadgen.check")
	var resp wire.InsertResp
	err = resp.Decode(lc.buf.Bytes())
	lc.tr.end(cid)
	if err != nil {
		return fmt.Errorf("decoding /insert response: %w", err)
	}
	w.acked = append(w.acked, frame)
	w.records += insertBatch
	w.trials += int(resp.Trials)
	if resp.Inserted != insertBatch || int(resp.TotalRecords) != w.base+w.records {
		return fmt.Errorf("insert acknowledged %d records, total %d; want %d, total %d", resp.Inserted, resp.TotalRecords, insertBatch, w.base+w.records)
	}
	if phase == phaseTimed {
		lc.t.record(opInsert, lat, 0, insertBatch, end)
	}
	if !w.live {
		return nil
	}
	return w.apply(lc.tr, rid, root)
}

// apply replays the acknowledged frames not yet applied on the in-process
// copies, under spans when tr is set: the insert handlers of both holders
// (the router's sequential fan-out), and the insert path's stages on copy
// C.
func (w *fleetIngest) apply(tr *tracer, rid int64, root int) error {
	for ; w.applied < len(w.acked); w.applied++ {
		frame := w.acked[w.applied]
		var err error
		tr.do(rid, root, "wire.insert_decode", func() { err = w.ireq.Decode(frame) })
		if err != nil {
			return err
		}
		// The router fans a batch out to its holders one after the other;
		// serve.insert times the first holder's handler alone.
		fan := tr.begin(rid, root, "fleet.fanout")
		tr.do(rid, fan, "serve.insert", func() { err = postInProcess(w.handlerA, "/insert", frame) })
		if err == nil {
			tr.do(rid, fan, "serve.insert.second_holder", func() { err = postInProcess(w.handlerB, "/insert", frame) })
		}
		tr.end(fan)
		if err != nil {
			return err
		}
		if err := w.stages(tr, rid, root); err != nil {
			return err
		}
		if (w.applied+1)%checkpointEvery == 0 {
			tr.do(rid, root, "fleet.checkpoint", func() { _, err = w.ref.srv.SnapshotPublication(w.ref.pub.ID) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// stages replays the insert path on copy C through the layers' exported
// functions, as serve's applyInsert and appendDelta run them.
func (w *fleetIngest) stages(tr *tracer, rid int64, root int) error {
	schema := w.source.Schema
	na := schema.NAIndices()
	var err error
	tr.do(rid, root, "core.add", func() {
		for _, rec := range w.ireq.Records {
			w.key = w.key[:0]
			for _, a := range na {
				w.key = append(w.key, rec[a])
			}
			if _, err = w.inc.Add(w.key, rec[schema.SA]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var d *core.Delta
	tr.do(rid, root, "core.flush", func() { d = w.inc.FlushDelta() })
	tr.do(rid, root, "query.delta", func() {
		var dm *query.Marginals
		if dm, err = query.BuildMarginalsFromGroups(d.Pub, w.req.MaxDim); err == nil {
			w.marg, err = w.marg.WithDelta(dm)
		}
	})
	if err != nil {
		return err
	}
	if w.marg.Generations() > compactEvery {
		tr.do(rid, root, "query.compact", func() { w.marg = w.marg.Compact() })
	}
	return nil
}

// catchUp applies the frames acknowledged so far to every in-process copy,
// untraced, so the traced phase starts from the fleet's state; from then on
// the copies follow every acknowledged batch.
func (w *fleetIngest) catchUp() error {
	w.live = true
	return w.replay(true)
}

// replayOnRef applies the outstanding acknowledged frames to copy A alone.
func (w *fleetIngest) replayOnRef() error {
	return w.replay(false)
}

// replay applies the outstanding acknowledged frames to copy A and, with
// all set, to copies B and C. Answers depend on the record sequence, not on
// where batches begin, so the records of up to replayChunk batches go in
// one frame: the same records in the same order, at a fraction of the
// per-request cost, and without piling up one delta generation per batch
// faster than the background compactor can fold them.
func (w *fleetIngest) replay(all bool) error {
	var frame []byte
	for w.applied < len(w.acked) {
		m := wire.InsertReq{ID: []byte(w.ref.pub.ID), Client: []byte(writer), NAttrs: w.source.Schema.NumAttrs()}
		for n := 0; n < replayChunk && w.applied < len(w.acked); n, w.applied = n+1, w.applied+1 {
			if err := w.ireq.Decode(w.acked[w.applied]); err != nil {
				return err
			}
			for _, rec := range w.ireq.Records {
				m.Records = append(m.Records, append([]uint16(nil), rec...))
			}
		}
		frame = m.Append(frame[:0])
		if err := postInProcess(w.handlerA, "/insert", frame); err != nil {
			return err
		}
		if !all {
			continue
		}
		if err := postInProcess(w.handlerB, "/insert", frame); err != nil {
			return err
		}
		if err := w.ireq.Decode(frame); err != nil {
			return err
		}
		if err := w.stages(nil, 0, -1); err != nil {
			return err
		}
	}
	return nil
}

// postInProcess calls a handler with a binary frame and fails on any
// status but 200.
func postInProcess(h http.Handler, path string, frame []byte) error {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(frame))
	r.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// current returns copy A's publication as of the frames applied so far.
func (w *fleetIngest) current() (*serve.Publication, error) {
	return w.ref.srv.Lookup(w.ref.pub.ID).Publication()
}

// read sends one binary read batch and checks its shape and charge; the
// answers move with the stream, so the exact check is the final read.
func (w *fleetIngest) read(lc *loadConn, phase int) error {
	lc.at(phase)
	rid := lc.nextReq()
	root := lc.tr.begin(rid, -1, "request")
	defer lc.tr.end(root)
	lc.pick(w.pool, ingestReadQueries)
	frame := lc.encode(w.ref.pub.ID, reader)
	hid := lc.tr.begin(rid, root, "http")
	status, lat, err := lc.post("/query", true, frame)
	lc.tr.end(hid)
	end := time.Now()
	if !lc.t.outcome(phase, opQuery, status, err) {
		lc.led[reader] = unknown
		return nil
	}
	cid := lc.tr.begin(rid, root, "loadgen.check")
	resp := &lc.qresp
	err = resp.Decode(lc.buf.Bytes())
	if err == nil && len(resp.Answers) != ingestReadQueries {
		err = fmt.Errorf("%d answers for %d queries", len(resp.Answers), ingestReadQueries)
	}
	for i := 0; err == nil && i < len(resp.Answers); i++ {
		if resp.Answers[i].Err != nil {
			err = fmt.Errorf("query %d: %s", i, resp.Answers[i].Err)
		}
	}
	if err == nil {
		err = lc.led.settle(reader, int64(resp.Charged), ingestReadQueries, int64(resp.ClientQueries))
	}
	lc.tr.end(cid)
	if err != nil {
		return err
	}
	if phase == phaseTimed {
		lc.t.record(opQuery, lat, int64(resp.ServeMicros), ingestReadQueries, end)
		lc.t.bytesOut += int64(len(frame))
		lc.t.bytesIn += int64(lc.buf.Len())
		lc.t.nBytes++
	}
	if lc.tr == nil {
		return nil
	}
	pub, err := w.current()
	if err != nil {
		return err
	}
	lc.sample("query.generations", float64(pub.Marg.Generations()))
	ns, err := lc.rp.binaryQuery(lc.tr, rid, root, pub, w.mgr, frame)
	lc.sample("query.ns_per_query", ns)
	return err
}

// finalCheck reads a fixed batch through the fleet and compares it with
// copy A after replaying exactly the acknowledged batches on it.
func (w *fleetIngest) finalCheck(srv *server) error {
	if err := w.replayOnRef(); err != nil {
		return err
	}
	pub, err := w.current()
	if err != nil {
		return err
	}
	qs := w.pool.qs[:finalReadQueries]
	count, est, err := answer(pub, qs)
	if err != nil {
		return err
	}
	m := wire.QueryReq{ID: []byte(pub.ID), Client: []byte("final"), Queries: qs}
	c := newConn(srv.Base)
	defer c.close()
	status, _, err := c.post("/query", true, m.Append(nil))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("final read: status %d: %s", status, c.buf.Bytes())
	}
	if err != nil {
		return err
	}
	var resp wire.QueryResp
	if err := resp.Decode(c.buf.Bytes()); err != nil {
		return err
	}
	if len(resp.Answers) != len(qs) {
		return fmt.Errorf("final read: %d answers for %d queries", len(resp.Answers), len(qs))
	}
	for i, a := range resp.Answers {
		if a.Err != nil || !sameAnswer(a.Count, a.Estimate, count[i], est[i]) {
			return fmt.Errorf("final read query %d: fleet (%d, %v, %q), replay (%d, %v)", i, a.Count, a.Estimate, a.Err, count[i], est[i])
		}
	}
	return nil
}
