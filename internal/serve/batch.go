package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/par"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// This file is the one execution core behind POST /query, /reconstruct and
// /insert. The body encoding — JSON labels by default, internal/wire codes
// under Content-Type application/x-rp-binary — is confined to three steps:
// decode (json.Unmarshal or the frame decoder, into pooled scratch),
// resolve (Resolve/ResolveConds for labels; MapConds/MapSA, or a domain
// check, for codes), and encode (the JSON response types or
// wire.*Resp.Append). The bounded read, batch limits, publication lookup,
// client identity, exposure charge, counters and latency run once per
// endpoint whatever the encoding, and errors are always the JSON ErrorBody.
// Resolution and evaluation share one par.Striped pass over QueryWorkers:
// each stripe resolves its items, then answers its own sub-slice with one
// worker. A steady-state binary batch allocates a handful of times, none
// per answered item.

// MaxBodyBytes bounds request bodies (a 100K-record insert of wide labels
// fits comfortably); a longer body is rejected with 413 too_large.
const MaxBodyBytes = 64 << 20

// scratch is one request's pooled working set.
type scratch struct {
	body []byte // raw request body; decoded frames alias it
	out  []byte // encoded response frame
	cbuf []byte // client id bytes for the response frame

	// Decode targets. Frames decode into reused state; JSON requests are
	// reset before each decode, because encoding/json fills reused slice
	// elements in place and would leak fields from an earlier request.
	wq wire.QueryReq
	wr wire.ReconstructReq
	wi wire.InsertReq
	jq queryRequest
	jr reconstructRequest
	ji insertRequest

	// Resolved items and their results, index-aligned with the batch.
	qs      []query.Query
	sets    [][]query.Cond
	errs    []error
	answers []query.Answer
	recs    []reconstruct.Reconstruction
	keys    [][]uint16 // insert keys in NAIndices order: views into karena
	karena  []uint16
	sas     []uint16

	// Binary encode targets.
	wans    []wire.Answer
	results []wire.RecResult
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledBody bounds the body buffer a pooled scratch keeps: one huge
// request (a bulk insert, a checkpoint restore, a rejected over-limit
// body) must not pin its buffer in the pool.
const maxPooledBody = 4 << 20

// putScratch returns st to the pool.
func putScratch(st *scratch) {
	if cap(st.body) > maxPooledBody {
		st.body = nil
	}
	scratchPool.Put(st)
}

// grow returns s resized to n elements, reallocating only when its
// capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// isBinary reports whether a request negotiated the binary framing.
func isBinary(r *http.Request) bool {
	return r.Header.Get("Content-Type") == wire.ContentType
}

// ReadBody is the one bounded reader behind every POST body, JSON or
// binary, on the single server and the fleet router alike: the method gate,
// then the whole body appended to dst. A body longer than MaxBodyBytes is
// rejected with 413 too_large — at once when its declared length says so,
// otherwise when the read crosses the limit. A false return means the
// rejection is already written.
func ReadBody(w http.ResponseWriter, r *http.Request, dst []byte) ([]byte, bool) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use POST"))
		return dst, false
	}
	if r.ContentLength > MaxBodyBytes {
		WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, errBodyTooLarge)
		return dst, false
	}
	lr := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	for {
		if len(dst) == cap(dst) {
			// At least double, from 512 bytes, as io.ReadAll grows.
			dst = slices.Grow(dst, max(512, len(dst)))
		}
		n, err := lr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, true
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, errBodyTooLarge)
			} else {
				WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("reading body: %v", err))
			}
			return dst, false
		}
	}
}

var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", MaxBodyBytes)

// readBody is ReadBody into pooled scratch. A nil return means the
// rejection is already written; otherwise the caller hands the scratch
// back with putScratch.
func readBody(w http.ResponseWriter, r *http.Request) *scratch {
	st := scratchPool.Get().(*scratch)
	var ok bool
	if st.body, ok = ReadBody(w, r, st.body[:0]); !ok {
		putScratch(st)
		return nil
	}
	return st
}

// DecodeJSON reads a JSON body through ReadBody and unmarshals it into
// dst. A false return means the rejection is already written.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	st := readBody(w, r)
	if st == nil {
		return false
	}
	defer putScratch(st)
	if err := json.Unmarshal(st.body, dst); err != nil {
		badBody(w, false, err)
		return false
	}
	return true
}

// badBody rejects a body that failed to decode in its encoding.
func badBody(w http.ResponseWriter, bin bool, err error) {
	what := "bad request body"
	if bin {
		what = "bad binary frame"
	}
	WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("%s: %v", what, err))
}

// writeFrame emits an encoded success frame.
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

// batchHead is the encoding-blind head of one decoded batch.
type batchHead struct {
	id, client string
	wait       bool
	clamp      bool // /reconstruct only
	n          int  // items in the batch
}

// checkBatch is the shared front of every batch endpoint after decode: the
// batch limits, then the publication lookup. A false return means the
// rejection is already written.
func (s *Server) checkBatch(w http.ResponseWriter, h batchHead, limit int, empty, noun string) (*Publication, bool) {
	if h.n == 0 {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, errors.New(empty))
		return nil, false
	}
	if h.n > limit {
		WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Errorf("%s of %d exceeds the limit %d", noun, h.n, limit))
		return nil, false
	}
	return s.resolvePublication(w, h.id, h.wait)
}

// --- POST /query ---

// queryRequest is the JSON body of POST /query.
type queryRequest struct {
	ID string `json:"id"`
	// Client identifies the querying party for exposure accounting;
	// the X-Client-Id header (ClientHeader) takes precedence, the remote
	// IP is the fallback.
	Client  string      `json:"client,omitempty"`
	Queries []QueryJSON `json:"queries"`
	// Wait blocks until a pending publication is ready instead of failing
	// with 409.
	Wait bool `json:"wait,omitempty"`
}

// QueryAnswer is one query's served answer.
type QueryAnswer struct {
	Count    int     `json:"count"`
	Estimate float64 `json:"estimate"`
	Error    string  `json:"error,omitempty"`
}

// QueryResponse is the JSON body of a successful POST /query. Its field
// order is the member order ReadJSONLedger accepts: Client and Ledger, the
// group a routing layer replaces, come last.
type QueryResponse struct {
	ID      string        `json:"id"`
	Answers []QueryAnswer `json:"answers"`
	// Charged is the exposure charge of this batch alone — the amount added
	// to the client's ledger, as opposed to Ledger.ClientQueries, the
	// cumulative total. Routing layers that keep their own authoritative
	// ledger charge exactly this once per logical request, however many
	// replica attempts it took.
	Charged     int64  `json:"charged"`
	ServeMicros int64  `json:"serve_us"`
	Client      string `json:"client"`
	Ledger
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	st := readBody(w, r)
	if st == nil {
		return
	}
	defer putScratch(st)
	bin := isBinary(r)
	var h batchHead
	var err error
	if bin {
		err = st.wq.Decode(st.body)
		h = batchHead{id: string(st.wq.ID), client: string(st.wq.Client), wait: st.wq.Wait, n: len(st.wq.Queries)}
	} else {
		st.jq = queryRequest{}
		err = json.Unmarshal(st.body, &st.jq)
		h = batchHead{id: st.jq.ID, client: st.jq.Client, wait: st.jq.Wait, n: len(st.jq.Queries)}
	}
	if err != nil {
		badBody(w, bin, err)
		return
	}
	pub, ok := s.checkBatch(w, h, s.cfg.MaxBatch, "empty query batch", "batch")
	if !ok {
		return
	}
	// Charge before evaluating: a budget rejection must not pay for the
	// work it refuses, and nothing after this point can fail the request.
	client := clientID(r, h.client)
	bres, ok := s.chargeExposure(w, client, pub.ID, int64(h.n), budget.ClassQuery)
	if !ok {
		return
	}

	st.qs = grow(st.qs, h.n)
	st.errs = grow(st.errs, h.n)
	st.answers = grow(st.answers, h.n)
	par.Striped(h.n, s.cfg.QueryWorkers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.qs[i], st.errs[i] = st.resolveQuery(pub, bin, i)
		}
		pub.Marg.AnswerBatchInto(st.answers[lo:hi:hi], st.qs[lo:hi:hi], pub.Req.P, 1)
		for i := lo; i < hi; i++ {
			if st.errs[i] != nil {
				st.answers[i] = query.Answer{Err: st.errs[i]}
			}
		}
	})

	var errs uint64
	var answers []QueryAnswer
	if bin {
		st.wans = st.wans[:0]
		for i := range st.answers {
			a := &st.answers[i]
			wa := wire.Answer{Count: int64(a.Count), Estimate: a.Estimate}
			if a.Err != nil {
				wa = wire.Answer{Err: []byte(a.Err.Error())}
				errs++
			}
			st.wans = append(st.wans, wa)
		}
	} else {
		answers = make([]QueryAnswer, h.n)
		for i := range st.answers {
			a := &st.answers[i]
			answers[i] = QueryAnswer{Count: a.Count, Estimate: a.Estimate}
			if a.Err != nil {
				answers[i] = QueryAnswer{Error: a.Err.Error()}
				errs++
			}
		}
	}

	s.queryBatches.Add(1)
	s.queriesAnswered.Add(uint64(h.n))
	s.queryErrors.Add(errs)
	elapsed := time.Since(start)
	s.lat.Observe(elapsed)
	led := LedgerOf(bres, s.cfg.ExposureWarn)
	if bin {
		st.cbuf = append(st.cbuf[:0], client...)
		resp := wire.QueryResp{ID: st.wq.ID, Client: st.cbuf, Ledger: led.Wire(int64(h.n)),
			ServeMicros: uint64(elapsed.Microseconds()), Answers: st.wans}
		st.out = resp.Append(st.out[:0])
		writeFrame(w, st.out)
		return
	}
	WriteJSON(w, http.StatusOK, QueryResponse{ID: pub.ID, Answers: answers, Charged: int64(h.n),
		ServeMicros: elapsed.Microseconds(), Client: client, Ledger: led})
}

// resolveQuery is /query's resolve step for item i. Frames carry original
// codes, rewritten in place into engine codes. A query that fails
// resolution is evaluated as the zero query and answered with its
// resolution error.
func (st *scratch) resolveQuery(pub *Publication, bin bool, i int) (query.Query, error) {
	if !bin {
		return pub.Resolve(st.jq.Queries[i])
	}
	q := &st.wq.Queries[i]
	if err := pub.MapConds(q.Conds); err != nil {
		return query.Query{}, err
	}
	if err := pub.MapSA(q.SA); err != nil {
		return query.Query{}, err
	}
	return query.Query{Conds: q.Conds, SA: q.SA}, nil
}

// --- POST /reconstruct ---

// reconstructRequest is the JSON body of POST /reconstruct.
type reconstructRequest struct {
	ID string `json:"id"`
	// Client identifies the reconstructing party for exposure accounting
	// (the X-Client-Id header, ClientHeader, takes precedence; the remote
	// IP is the fallback).
	Client string `json:"client,omitempty"`
	// Subsets are the condition sets to reconstruct over, one result each.
	Subsets [][]CondJSON `json:"subsets"`
	// Clamp projects every estimate onto the probability simplex (negative
	// entries floored at 0, renormalized); the raw unbiased MLE is the
	// default.
	Clamp bool `json:"clamp,omitempty"`
	// Wait blocks until a pending publication is ready instead of failing
	// with 409.
	Wait bool `json:"wait,omitempty"`
}

// Reconstruction is one subset's served reconstruction.
type Reconstruction struct {
	// Size is the observed subset size |S*|; 0 with no freqs means the
	// subset is empty.
	Size int `json:"size"`
	// Freqs is the estimated sensitive-value distribution keyed by label.
	Freqs map[string]float64 `json:"freqs,omitempty"`
	Error string             `json:"error,omitempty"`
}

// ReconstructResponse is the JSON body of a successful POST /reconstruct,
// in the member order of QueryResponse.
type ReconstructResponse struct {
	ID      string           `json:"id"`
	Results []Reconstruction `json:"results"`
	// Charged is the exposure charge of this batch alone (subsets × the
	// sensitive-attribute domain size); Ledger.ClientQueries is the
	// client's cumulative exposure after it: every reconstruction reveals
	// the subset's full m-value histogram, so it is charged as m count
	// queries.
	Charged     int64  `json:"charged"`
	ServeMicros int64  `json:"serve_us"`
	Client      string `json:"client"`
	Ledger
}

// handleReconstruct answers one /reconstruct batch. Binary frequencies are
// dense by original sensitive-value code (labels are recoverable from
// /publications?domains=1); JSON frequencies are keyed by label.
func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	st := readBody(w, r)
	if st == nil {
		return
	}
	defer putScratch(st)
	bin := isBinary(r)
	var h batchHead
	var err error
	if bin {
		err = st.wr.Decode(st.body)
		h = batchHead{id: string(st.wr.ID), client: string(st.wr.Client), wait: st.wr.Wait,
			clamp: st.wr.Clamp, n: len(st.wr.Subsets)}
	} else {
		st.jr = reconstructRequest{}
		err = json.Unmarshal(st.body, &st.jr)
		h = batchHead{id: st.jr.ID, client: st.jr.Client, wait: st.jr.Wait, clamp: st.jr.Clamp, n: len(st.jr.Subsets)}
	}
	if err != nil {
		badBody(w, bin, err)
		return
	}
	pub, ok := s.checkBatch(w, h, s.cfg.MaxBatch, "empty subset batch", "batch")
	if !ok {
		return
	}
	// Charge before evaluating. Reconstruction is the first class shed as a
	// client nears quota — the batch reveals subsets × m histogram cells.
	client := clientID(r, h.client)
	charged := int64(h.n) * int64(pub.Marg.SADomain())
	bres, ok := s.chargeExposure(w, client, pub.ID, charged, budget.ClassReconstruct)
	if !ok {
		return
	}

	st.sets = grow(st.sets, h.n)
	st.errs = grow(st.errs, h.n)
	st.recs = grow(st.recs, h.n)
	opt := reconstruct.BatchOptions{Workers: 1, Clamp: h.clamp}
	par.Striped(h.n, s.cfg.QueryWorkers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.sets[i], st.errs[i] = st.resolveSubset(pub, bin, i)
		}
		copy(st.recs[lo:hi], pub.Eng.ReconstructBatch(st.sets[lo:hi], opt))
		for i := lo; i < hi; i++ {
			if st.errs[i] != nil {
				st.recs[i] = reconstruct.Reconstruction{Err: st.errs[i]}
			}
		}
	})

	var errs uint64
	var results []Reconstruction
	if bin {
		st.results = st.results[:0]
		for i := range st.recs {
			rec := &st.recs[i]
			res := wire.RecResult{Size: int64(rec.Size), Freqs: rec.Freqs}
			if rec.Err != nil {
				res = wire.RecResult{Err: []byte(rec.Err.Error())}
				errs++
			}
			st.results = append(st.results, res)
		}
	} else {
		sa := pub.Orig.SAAttr()
		results = make([]Reconstruction, h.n)
		for i := range st.recs {
			rec := &st.recs[i]
			results[i] = Reconstruction{Size: rec.Size}
			switch {
			case rec.Err != nil:
				results[i] = Reconstruction{Error: rec.Err.Error()}
				errs++
			case rec.Freqs != nil:
				results[i].Freqs = make(map[string]float64, len(rec.Freqs))
				for v, f := range rec.Freqs {
					results[i].Freqs[sa.Label(uint16(v))] = f
				}
			}
		}
	}

	s.reconstructBatches.Add(1)
	s.reconstructions.Add(uint64(h.n))
	s.queryErrors.Add(errs)
	elapsed := time.Since(start)
	s.lat.Observe(elapsed)
	led := LedgerOf(bres, s.cfg.ExposureWarn)
	if bin {
		st.cbuf = append(st.cbuf[:0], client...)
		resp := wire.ReconstructResp{ID: st.wr.ID, Client: st.cbuf, Ledger: led.Wire(charged),
			ServeMicros: uint64(elapsed.Microseconds()), Results: st.results}
		st.out = resp.Append(st.out[:0])
		writeFrame(w, st.out)
		return
	}
	WriteJSON(w, http.StatusOK, ReconstructResponse{ID: pub.ID, Results: results, Charged: charged,
		ServeMicros: elapsed.Microseconds(), Client: client, Ledger: led})
}

// resolveSubset is /reconstruct's resolve step for item i. A subset that
// fails resolution reaches the engine as nil and is answered with its
// resolution error, not the engine's.
func (st *scratch) resolveSubset(pub *Publication, bin bool, i int) ([]query.Cond, error) {
	if !bin {
		return pub.ResolveConds(st.jr.Subsets[i])
	}
	set := st.wr.Subsets[i]
	if err := pub.MapConds(set); err != nil {
		return nil, err
	}
	return set, nil
}

// --- POST /insert ---

// insertRequest is the JSON body of POST /insert: records as attribute →
// value label objects over the publication's original schema (all public
// attributes plus the sensitive attribute are required). The binary frame
// carries the same records as code vectors in schema order (incremental
// publications never generalize, so original and served schemas
// coincide).
type insertRequest struct {
	ID      string              `json:"id"`
	Records []map[string]string `json:"records"`
	Wait    bool                `json:"wait,omitempty"`
}

type insertResponse struct {
	ID       string `json:"id"`
	Inserted int    `json:"inserted"`
	// Trials counts records published by spending a fresh perturbation
	// trial; Absorbed counts records folded in by duplicating an existing
	// perturbed record — no new trial, the streaming analogue of Scaling.
	Trials       int `json:"trials"`
	Absorbed     int `json:"absorbed"`
	TotalRecords int `json:"total_records"`
}

// handleInsert ingests one /insert batch. Every record is resolved before
// the publisher is touched, so a bad record rejects the whole batch.
// Inserts charge no exposure, so neither response carries a ledger.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	st := readBody(w, r)
	if st == nil {
		return
	}
	defer putScratch(st)
	bin := isBinary(r)
	var h batchHead
	var err error
	if bin {
		err = st.wi.Decode(st.body)
		h = batchHead{id: string(st.wi.ID), client: string(st.wi.Client), wait: st.wi.Wait, n: len(st.wi.Records)}
	} else {
		st.ji = insertRequest{}
		err = json.Unmarshal(st.body, &st.ji)
		h = batchHead{id: st.ji.ID, wait: st.ji.Wait, n: len(st.ji.Records)}
	}
	if err != nil {
		badBody(w, bin, err)
		return
	}
	pub, ok := s.checkBatch(w, h, s.cfg.MaxInsert, "no records", "insert")
	if !ok {
		return
	}
	e := s.reg.get(h.id)
	if e.inc == nil {
		WriteError(w, http.StatusConflict, CodeNotIncremental,
			fmt.Errorf("publication %q was published with method %q; only incremental publications accept inserts", h.id, pub.Req.Method))
		return
	}
	if err := st.resolveRecords(pub.Orig, bin, h.n); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}

	resp, err := s.applyInsert(e, st.keys, st.sas)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	s.inserts.Add(uint64(resp.Inserted))
	s.absorbed.Add(uint64(resp.Absorbed))
	if bin {
		st.cbuf = append(st.cbuf[:0], clientID(r, h.client)...)
		wresp := wire.InsertResp{ID: st.wi.ID, Client: st.cbuf, Inserted: uint32(resp.Inserted),
			Trials: uint32(resp.Trials), Absorbed: uint32(resp.Absorbed), TotalRecords: uint64(resp.TotalRecords)}
		st.out = wresp.Append(st.out[:0])
		writeFrame(w, st.out)
		return
	}
	resp.ID = h.id
	WriteJSON(w, http.StatusOK, resp)
}

// resolveRecords is /insert's resolve step: each of the n records becomes
// a key in NAIndices order — a view into the pooled arena — plus its
// sensitive code. Labels resolve against the original schema; codes are
// checked against their attribute domains.
func (st *scratch) resolveRecords(schema *dataset.Schema, bin bool, n int) error {
	if bin && st.wi.NAttrs != schema.NumAttrs() {
		return fmt.Errorf("records carry %d attributes, schema has %d", st.wi.NAttrs, schema.NumAttrs())
	}
	naIdx := schema.NAIndices()
	k := len(naIdx)
	st.karena = grow(st.karena, n*k)
	st.keys = grow(st.keys, n)
	st.sas = grow(st.sas, n)
	for ri := range st.keys {
		key := st.karena[ri*k : (ri+1)*k : (ri+1)*k]
		var err error
		if bin {
			st.sas[ri], err = codeRecord(schema, naIdx, ri, st.wi.Records[ri], key)
		} else {
			st.sas[ri], err = labelRecord(schema, naIdx, ri, st.ji.Records[ri], key)
		}
		if err != nil {
			return err
		}
		st.keys[ri] = key
	}
	return nil
}

// labelRecord resolves record ri's labels into key and returns its
// sensitive code.
func labelRecord(schema *dataset.Schema, naIdx []int, ri int, rec map[string]string, key []uint16) (uint16, error) {
	for ki, ai := range naIdx {
		a := &schema.Attrs[ai]
		label, ok := rec[a.Name]
		if !ok {
			return 0, fmt.Errorf("record %d: missing attribute %q", ri, a.Name)
		}
		code, err := a.Code(label)
		if err != nil {
			return 0, fmt.Errorf("record %d: %v", ri, err)
		}
		key[ki] = code
	}
	sa := schema.SAAttr()
	label, ok := rec[sa.Name]
	if !ok {
		return 0, fmt.Errorf("record %d: missing sensitive attribute %q", ri, sa.Name)
	}
	code, err := sa.Code(label)
	if err != nil {
		return 0, fmt.Errorf("record %d: %v", ri, err)
	}
	return code, nil
}

// codeRecord domain-checks record ri's codes (schema order, sensitive
// attribute included) into key and returns its sensitive code.
func codeRecord(schema *dataset.Schema, naIdx []int, ri int, rec []uint16, key []uint16) (uint16, error) {
	for ki, ai := range naIdx {
		a := &schema.Attrs[ai]
		if int(rec[ai]) >= a.Domain() {
			return 0, fmt.Errorf("record %d: attribute %q code %d out of domain [0,%d)", ri, a.Name, rec[ai], a.Domain())
		}
		key[ki] = rec[ai]
	}
	sa := rec[schema.SA]
	if int(sa) >= schema.SADomain() {
		return 0, fmt.Errorf("record %d: sensitive code %d out of domain [0,%d)", ri, sa, schema.SADomain())
	}
	return sa, nil
}
