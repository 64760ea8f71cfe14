package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/fleet"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/stats"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// fleet-read: per-request costs at the router and the replicas, where cube
// lookups are nearly free. Several small read-only publications are placed
// on 3 replicas with rf 2, so rendezvous placement loads every replica; one
// connection sends small /query and /reconstruct requests for a
// Zipf-skewed client population, alternating JSON and binary.
//
// Where the traffic's shape comes from:
//   - 5 /query to 2 /reconstruct, and 20 queries per /query: the simulated
//     fleet scenario (internal/sim "fleet": Mix{Query: 5, Reconstruct: 2},
//     QueriesPerBatch 20), without its audits, which are not reads.
//   - 4 subsets per /reconstruct: the simulated budget scenario's
//     SubsetsPerBatch; the fleet scenario's 10 is more than the few
//     subsets this workload is defined with.
//   - Zipf exponent 1.1: the milder of the exposure-budget benchmark's two
//     skews (internal/experiments RunBudgetBench).
//   - Unverified assumptions, with no measured source: 4,000 clients (a
//     population of thousands) and the six publications' datasets and
//     sizes (several small ones).
//
// Three choices trade coverage for steadiness, measured on a 2-vCPU Xeon VM
// with runs made minutes apart. The replicas run in-process behind
// rpfleet's socket: with spawned replicas (-procs) the throughput spread
// 16-28% between runs, in-process 10% in the same minutes. One connection,
// not two: two spread 12-18%, one 2-3%. fleet-ingest keeps spawned
// replicas, so the replica sockets are still measured there. And the load
// and the fleet share one CPU (pinFleet): runs interleaved with unpinned
// ones in the same minutes answered 33-72% more requests per second, and
// the spread of eleven runs fell from 16% to 8%.
const (
	readPool     = 2000 // distinct queries per publication
	readQueries  = 20
	queryWeight  = 5 // of queryWeight+reconWeight requests, reconWeight are /reconstruct
	reconWeight  = 2
	readSubsets  = 4
	clients      = 4000 // Zipf-ranked client population
	zipfExponent = 1.1
)

// fleetPubs are the read-only publications, as rpfleet -preload entries.
var fleetPubs = []string{"medical:3000", "medical:6000", "medical:12000", "census:20000", "census:50000", "adult"}

// fleetArgs are the rpfleet flags of the fleet workloads: 3 replicas, rf 2.
// Budget enforcement is off so nothing is refused, while every charge
// still lands in the router's ledger. fleet-ingest adds -procs.
var fleetArgs = []string{"-replicas", "3", "-rf", "2", "-budget", "-1"}

// pinFleet runs this process and the rpfleet process tree it launches next
// on one CPU, each with one Go processor, and notes it in the run record;
// the returned function undoes it. The closed loop hands every request
// across a socket and back, through the router and, with spawned replicas,
// across two more; on two virtual CPUs each hand-off woke an idle one,
// which cost about a quarter of a fleet-read request's time and varied
// with the load on the host. On one CPU a hand-off is a local switch.
func pinFleet(o *outcome) (func() error, error) {
	cpu, unpin, err := pinOneCPU()
	if err != nil {
		return nil, err
	}
	o.pinned = fmt.Sprintf("this process and rpfleet's process tree on CPU %d, GOMAXPROCS 1", cpu)
	return unpin, nil
}

// readPub is one publication's reference and query pool.
type readPub struct {
	ref  *reference
	pool *queryPool
}

// fleetRead is the workload's shared state.
type fleetRead struct {
	pubs   []readPub
	zipf   *stats.Zipf
	mgr    *budget.Manager
	inproc http.Handler    // in-process fleet with the same publications (traced)
	sent   map[uint64]bool // hashes of the bodies sent in the run
}

// jsonQueryReq and jsonReconReq are the JSON /query and /reconstruct
// request bodies.
type jsonQueryReq struct {
	ID      string            `json:"id"`
	Client  string            `json:"client,omitempty"`
	Queries []serve.QueryJSON `json:"queries"`
}

type jsonReconReq struct {
	ID      string             `json:"id"`
	Client  string             `json:"client,omitempty"`
	Subsets [][]serve.CondJSON `json:"subsets"`
}

func runFleetRead(e *env) (*outcome, error) {
	o := newOutcome()
	w := &fleetRead{zipf: stats.NewZipf(zipfExponent, clients), mgr: newReplayBudget(), sent: map[uint64]bool{}}
	rng := stats.NewRand(e.seed)
	var ip *fleet.Fleet
	if e.trace {
		ip = fleet.New(fleet.Config{Replicas: 3, ReplicationFactor: 2, Serve: serve.Config{BudgetQuota: -1}})
		defer ip.Close()
		w.inproc = ip.Handler()
	}
	for _, spec := range fleetPubs {
		req, err := preloadRequest(spec)
		if err != nil {
			return nil, err
		}
		if e.trace {
			if _, _, err := replayCold(o, req); err != nil {
				return nil, err
			}
			if _, err := ip.Publish(req); err != nil {
				return nil, err
			}
		}
		ref, err := newReference(req)
		if err != nil {
			return nil, err
		}
		pool, err := newPool(rng, ref, readPool)
		if err != nil {
			return nil, err
		}
		w.pubs = append(w.pubs, readPub{ref: ref, pool: pool})
	}

	unpin, err := pinFleet(o)
	if err != nil {
		return nil, err
	}
	defer unpin() // on error paths; the last return checks it
	args := append(append([]string(nil), fleetArgs...), "-preload", strings.Join(fleetPubs, ","))
	o.flags = args
	var led ledger
	srv, err := setUp(e, o, e.rpfleet, "rpfleet", args, func(s *server, k int) error {
		led = ledger{}
		lc := newLoadConn(s.Base, e.seed, int64(-1-k), o.tally, false, led)
		defer lc.close()
		return w.step(lc, phaseSetup)
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	if err := load(e, o, srv.Base, led, w.step, nil, "fleet.outside_us"); err != nil {
		return nil, err
	}

	st, err := routerStats(srv)
	if err != nil {
		return nil, err
	}
	if st.VerifyMismatches != 0 {
		return nil, fmt.Errorf("router reports %d cross-replica verify mismatches", st.VerifyMismatches)
	}
	routerLayerValues(o, st)
	o.checkLog = append(o.checkLog,
		"every /query and /reconstruct answer equals its publication's in-process reference, in both encodings",
		"every client's client_queries equals its own charged count (exactly-once charging through the router)",
		fmt.Sprintf("router verify_mismatches is 0 (%d sampled verifications)", st.Verified))
	if o.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return o, unpin()
}

// preloadRequest turns a dataset[:size] entry into its publish request, as
// the servers' -preload does.
func preloadRequest(spec string) (serve.PublishRequest, error) {
	name, size, ok := strings.Cut(spec, ":")
	req := serve.PublishRequest{Dataset: name}
	if ok {
		if _, err := fmt.Sscan(size, &req.Size); err != nil {
			return req, fmt.Errorf("bad size in %q", spec)
		}
	}
	return req, req.Normalize()
}

// routerStats reads the router's /statsz.
func routerStats(srv *server) (fleet.Stats, error) {
	c := newConn(srv.Base)
	defer c.close()
	var st fleet.Stats
	err := c.getJSON("/statsz", &st)
	return st, err
}

// routerLayerValues fills the per-layer metrics read from the router's
// /statsz.
func routerLayerValues(o *outcome, st fleet.Stats) {
	if st.Requests > 0 {
		o.layers["fleet.attempts_per_req"] = float64(st.Requests+st.Retries) / float64(st.Requests)
		o.layers["fleet.verified_frac"] = float64(st.Verified) / float64(st.Requests)
	}
	o.layers["fleet.failovers"] = float64(st.Failovers)
	o.layers["fleet.shed"] = float64(st.Shed)
	o.layers["budget.tracked"] = float64(st.Budget.TrackedClients)
}

// step sends one request: a /reconstruct with odds reconWeight to
// queryWeight, otherwise a /query; JSON and binary alternate.
func (w *fleetRead) step(lc *loadConn, phase int) error {
	lc.at(phase)
	rid := lc.nextReq()
	binary := lc.seq%2 == 0
	for {
		p := &w.pubs[lc.rng.Intn(len(w.pubs))]
		client := fmt.Sprintf("c%d", w.zipf.Draw(lc.rng))
		var err error
		if lc.rng.Intn(queryWeight+reconWeight) < reconWeight {
			err = w.reconstruct(lc, phase, rid, p, client, binary)
		} else {
			err = w.query(lc, phase, rid, p, client, binary)
		}
		if err != errRepeat {
			return err
		}
	}
}

// errRepeat reports a drawn request body that was sent before; the step
// draws again.
var errRepeat = errors.New("request body already sent")

// fresh reports whether the body has not been sent before in the run, and
// records it. Small requests for Zipf-popular clients repeat by chance; a
// repeat would let a cache answer for free.
func (w *fleetRead) fresh(body []byte) bool {
	h := fnv.New64a()
	h.Write(body)
	k := h.Sum64()
	if w.sent[k] {
		return false
	}
	w.sent[k] = true
	return true
}

// query sends one small /query batch and checks it.
func (w *fleetRead) query(lc *loadConn, phase int, rid int64, p *readPub, client string, binary bool) error {
	pub := p.ref.pub
	idx := lc.pick(p.pool, readQueries)
	var body []byte
	if binary {
		body = lc.encode(pub.ID, client)
	} else {
		jq := jsonQueryReq{ID: pub.ID, Client: client, Queries: make([]serve.QueryJSON, len(idx))}
		for i, j := range idx {
			jq.Queries[i] = jsonQuery(pub.Orig, p.pool.qs[j])
		}
		var err error
		if body, err = json.Marshal(jq); err != nil {
			return err
		}
	}
	if !w.fresh(body) {
		return errRepeat
	}
	root := lc.tr.begin(rid, -1, "request")
	defer lc.tr.end(root)
	hid := lc.tr.begin(rid, root, "http")
	status, lat, err := lc.post("/query", binary, body)
	lc.tr.end(hid)
	end := time.Now()
	if !lc.t.outcome(phase, opQuery, status, err) {
		lc.led[client] = unknown
		return nil
	}
	cid := lc.tr.begin(rid, root, "loadgen.check")
	serveUS, err := checkQuery(lc, p.pool, pub.ID, client, idx, binary)
	lc.tr.end(cid)
	if err != nil {
		return err
	}
	if phase == phaseTimed {
		lc.t.record(opQuery, lat, serveUS, int64(len(idx)), end)
		lc.t.bytesOut += int64(len(body))
		lc.t.bytesIn += int64(lc.buf.Len())
		lc.t.nBytes++
	}
	if lc.tr == nil {
		return nil
	}
	if err := w.routerSplit(lc, rid, root, "/query", binary, body, lat, serveUS); err != nil {
		return err
	}
	if binary {
		ns, err := lc.rp.binaryQuery(lc.tr, rid, root, pub, w.mgr, body)
		lc.sample("query.ns_per_query", ns)
		return err
	}
	return w.replayJSONQuery(lc, rid, root, pub, body)
}

// reconstruct sends one /reconstruct request of a few condition subsets
// and checks it against the reference engine.
func (w *fleetRead) reconstruct(lc *loadConn, phase int, rid int64, p *readPub, client string, binary bool) error {
	pub := p.ref.pub
	subsets := make([][]wire.Cond, readSubsets)
	for i := range subsets {
		subsets[i] = randomConds(lc.rng, pub.Orig, maxQueryDim)
	}
	var body []byte
	if binary {
		m := wire.ReconstructReq{ID: []byte(pub.ID), Client: []byte(client), Subsets: subsets}
		body = m.Append(nil)
	} else {
		jr := jsonReconReq{ID: pub.ID, Client: client, Subsets: make([][]serve.CondJSON, len(subsets))}
		for i, s := range subsets {
			jr.Subsets[i] = jsonConds(pub.Orig, s)
		}
		var err error
		if body, err = json.Marshal(jr); err != nil {
			return err
		}
	}
	if !w.fresh(body) {
		return errRepeat
	}
	root := lc.tr.begin(rid, -1, "request")
	defer lc.tr.end(root)
	hid := lc.tr.begin(rid, root, "http")
	status, lat, err := lc.post("/reconstruct", binary, body)
	lc.tr.end(hid)
	end := time.Now()
	if !lc.t.outcome(phase, opReconstruct, status, err) {
		lc.led[client] = unknown
		return nil
	}
	cid := lc.tr.begin(rid, root, "loadgen.check")
	serveUS, err := w.checkRecon(lc, p, client, subsets, binary)
	lc.tr.end(cid)
	if err != nil {
		return err
	}
	if phase == phaseTimed {
		lc.t.record(opReconstruct, lat, serveUS, int64(len(subsets)), end)
	}
	if lc.tr == nil {
		return nil
	}
	if err := w.routerSplit(lc, rid, root, "/reconstruct", binary, body, lat, serveUS); err != nil {
		return err
	}
	return w.replayRecon(lc, rid, root, pub, body, binary)
}

// checkRecon compares a /reconstruct response with the reference engine's
// reconstructions and returns its serve_us.
func (w *fleetRead) checkRecon(lc *loadConn, p *readPub, client string, subsets [][]wire.Cond, binary bool) (int64, error) {
	pub := p.ref.pub
	sets := make([][]query.Cond, len(subsets))
	for i, s := range subsets {
		sets[i] = append([]query.Cond(nil), s...)
		if err := pub.MapConds(sets[i]); err != nil {
			return 0, err
		}
	}
	want := pub.Eng.ReconstructBatch(sets, reconstruct.BatchOptions{})
	wantCharged := int64(len(subsets)) * int64(pub.Marg.SADomain())
	sa := pub.Orig.SAAttr()
	mismatch := func(i int) error {
		return fmt.Errorf("%s reconstruction %d differs from the reference", pub.ID, i)
	}
	if binary {
		var resp wire.ReconstructResp
		if err := resp.Decode(lc.buf.Bytes()); err != nil {
			return 0, fmt.Errorf("decoding /reconstruct response: %w", err)
		}
		if len(resp.Results) != len(want) {
			return 0, fmt.Errorf("%d results for %d subsets", len(resp.Results), len(want))
		}
		for i, r := range resp.Results {
			if r.Err != nil || want[i].Err != nil || r.Size != int64(want[i].Size) || !sameFreqs(r.Freqs, want[i].Freqs) {
				return 0, mismatch(i)
			}
		}
		return int64(resp.ServeMicros), lc.led.settle(client, int64(resp.Charged), wantCharged, int64(resp.ClientQueries))
	}
	var resp serve.ReconstructResponse
	if err := json.Unmarshal(lc.buf.Bytes(), &resp); err != nil {
		return 0, fmt.Errorf("decoding /reconstruct response: %w", err)
	}
	if len(resp.Results) != len(want) {
		return 0, fmt.Errorf("%d results for %d subsets", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r.Error != "" || want[i].Err != nil || r.Size != want[i].Size || len(r.Freqs) != len(want[i].Freqs) {
			return 0, mismatch(i)
		}
		for v, f := range want[i].Freqs {
			if got, ok := r.Freqs[sa.Label(uint16(v))]; !ok || math.Float64bits(got) != math.Float64bits(f) {
				return 0, mismatch(i)
			}
		}
	}
	return resp.ServeMicros, lc.led.settle(client, resp.Charged, wantCharged, resp.ClientQueries)
}

// sameFreqs compares two frequency vectors bit for bit.
func sameFreqs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// routerSplit sends the same request through the in-process fleet and
// splits the spawned fleet's time outside the replica handler into the
// router's own work (in-process total minus the in-process replica's
// serve_us) and the socket transport (the rest).
func (w *fleetRead) routerSplit(lc *loadConn, rid int64, root int, path string, binary bool, body []byte, lat time.Duration, serveUS int64) error {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if binary {
		r.Header.Set("Content-Type", wire.ContentType)
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	lc.tr.do(rid, root, "fleet.inproc", func() { w.inproc.ServeHTTP(rec, r) })
	total := time.Since(start)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process fleet %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	ipServe, err := serveMicros(rec.Body.Bytes())
	if err != nil {
		return err
	}
	router := outsideMicros(total, ipServe)
	lc.sample("fleet.router_us", router)
	lc.sample("fleet.transport_us", outsideMicros(lat, serveUS)-router)
	return nil
}

// serveMicros reads serve_us from a /query or /reconstruct response in
// either encoding.
func serveMicros(body []byte) (int64, error) {
	if wire.IsFrame(body) {
		k, err := wire.FrameKind(body)
		if err != nil {
			return 0, err
		}
		if k == wire.KindReconstructResp {
			var r wire.ReconstructResp
			err := r.Decode(body)
			return int64(r.ServeMicros), err
		}
		var q wire.QueryResp
		err = q.Decode(body)
		return int64(q.ServeMicros), err
	}
	var v struct {
		ServeUS int64 `json:"serve_us"`
	}
	err := json.Unmarshal(body, &v)
	return v.ServeUS, err
}

// replayJSONQuery replays a JSON /query request's server-side stages:
// decode, budget charge, label resolution, cube lookups, encode.
func (w *fleetRead) replayJSONQuery(lc *loadConn, rid int64, root int, pub *serve.Publication, body []byte) error {
	var req jsonQueryReq
	var err error
	lc.tr.do(rid, root, "serve.json", func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	lc.tr.do(rid, root, "budget.charge", func() { w.mgr.Charge(req.Client, pub.ID, int64(len(req.Queries)), budget.ClassQuery) })
	qs := make([]query.Query, len(req.Queries))
	lc.tr.do(rid, root, "serve.resolve", func() {
		for i := range req.Queries {
			if qs[i], err = pub.Resolve(req.Queries[i]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var ans []query.Answer
	start := time.Now()
	lc.tr.do(rid, root, "query.answer", func() { ans = pub.Marg.AnswerBatch(qs, pub.Req.P, 0) })
	lc.sample("query.ns_per_query", float64(time.Since(start).Nanoseconds())/float64(len(qs)))
	lc.tr.do(rid, root, "serve.json", func() {
		out := serve.QueryResponse{ID: pub.ID, Client: req.Client, Charged: int64(len(qs)), Answers: make([]serve.QueryAnswer, len(ans))}
		for i, a := range ans {
			out.Answers[i] = serve.QueryAnswer{Count: a.Count, Estimate: a.Estimate}
		}
		_, err = json.Marshal(out)
	})
	return err
}

// replayRecon replays a /reconstruct request's server-side stages.
func (w *fleetRead) replayRecon(lc *loadConn, rid int64, root int, pub *serve.Publication, body []byte, binary bool) error {
	var sets [][]query.Cond
	var client string
	var err error
	if binary {
		var req wire.ReconstructReq
		if err := req.Decode(body); err != nil {
			return err
		}
		client, sets = string(req.Client), req.Subsets
		lc.tr.do(rid, root, "serve.map", func() {
			for _, s := range sets {
				if err = pub.MapConds(s); err != nil {
					return
				}
			}
		})
	} else {
		var req jsonReconReq
		lc.tr.do(rid, root, "serve.json", func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return err
		}
		client = req.Client
		sets = make([][]query.Cond, len(req.Subsets))
		lc.tr.do(rid, root, "serve.resolve", func() {
			for i, s := range req.Subsets {
				if sets[i], err = pub.ResolveConds(s); err != nil {
					return
				}
			}
		})
	}
	if err != nil {
		return err
	}
	lc.tr.do(rid, root, "budget.charge", func() {
		w.mgr.Charge(client, pub.ID, int64(len(sets))*int64(pub.Marg.SADomain()), budget.ClassReconstruct)
	})
	var recs []reconstruct.Reconstruction
	lc.tr.do(rid, root, "reconstruct.batch", func() { recs = pub.Eng.ReconstructBatch(sets, reconstruct.BatchOptions{}) })
	if binary {
		return nil
	}
	sa := pub.Orig.SAAttr()
	lc.tr.do(rid, root, "serve.json", func() {
		out := serve.ReconstructResponse{ID: pub.ID, Client: client, Results: make([]serve.Reconstruction, len(recs))}
		for i, r := range recs {
			out.Results[i] = serve.Reconstruction{Size: r.Size}
			if r.Freqs != nil {
				out.Results[i].Freqs = make(map[string]float64, len(r.Freqs))
				for v, f := range r.Freqs {
					out.Results[i].Freqs[sa.Label(uint16(v))] = f
				}
			}
		}
		_, err = json.Marshal(out)
	})
	return err
}
