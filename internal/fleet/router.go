package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/par"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// maxIdempotencyEntries bounds the replay cache; beyond it the oldest
// entries are evicted FIFO.
const maxIdempotencyEntries = 4096

// Handler returns the fleet's HTTP surface: the routed read endpoints
// (/query, /reconstruct, /audit), the fan-out write endpoints (/publish,
// /refresh, /insert), and fleet-level /healthz and /statsz. Bodies and
// codes match the single-server serve surface, so clients move between one
// server and a fleet without changes.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", f.proxyHandler("/query"))
	mux.HandleFunc("/reconstruct", f.proxyHandler("/reconstruct"))
	mux.HandleFunc("/audit", f.proxyHandler("/audit"))
	mux.HandleFunc("/publish", f.handlePublish)
	mux.HandleFunc("/refresh", f.handleRefresh)
	mux.HandleFunc("/insert", f.handleInsert)
	mux.HandleFunc("/publications", f.handlePublications)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/statsz", f.handleStatsz)
	return mux
}

// routed is one routed request as the router reads it: the body, opaque
// beyond its head and forwarded byte-for-byte, the head the router places
// and charges by, and the headers it forwards.
type routed struct {
	body   []byte
	binary bool
	id     string
	client string
	p      *pub
	hdr    http.Header
	// mutations is p.mutations when the request was first sent.
	mutations uint64
}

// readRouted is the one reader of routed bodies (/query, /reconstruct,
// /audit, /insert): serve.ReadBody's method gate and bounded read, the
// head from wire.PeekHead or the JSON body, the publication lookup, and
// the forwarded Content-Type. A nil return means the rejection is already
// written.
func (f *Fleet) readRouted(w http.ResponseWriter, r *http.Request) *routed {
	body, ok := serve.ReadBody(w, r, nil)
	if !ok {
		return nil
	}
	rr := &routed{body: body, binary: r.Header.Get("Content-Type") == wire.ContentType}
	rr.hdr = bodyHeader(rr.binary)
	if rr.binary {
		h, err := wire.PeekHead(body)
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, fmt.Errorf("bad binary frame: %w", err))
			return nil
		}
		rr.id, rr.client = string(h.ID), string(h.Client)
	} else {
		var head struct {
			ID     string `json:"id"`
			Client string `json:"client"`
		}
		if err := json.Unmarshal(body, &head); err != nil {
			serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, fmt.Errorf("bad request body: %v", err))
			return nil
		}
		rr.id, rr.client = head.ID, head.Client
	}
	if rr.p = f.lookup(rr.id); rr.p == nil {
		serve.WriteError(w, http.StatusNotFound, serve.CodeNotFound, fmt.Errorf("no publication %q", rr.id))
		return nil
	}
	return rr
}

// bodyHeader is the request header that forwards a body in its encoding.
func bodyHeader(binary bool) http.Header {
	h := make(http.Header, 2)
	if binary {
		h.Set("Content-Type", wire.ContentType)
	} else {
		h.Set("Content-Type", "application/json")
	}
	return h
}

func (f *Fleet) proxyHandler(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f.proxy(w, r, path)
	}
}

// proxy routes one logical request: place by publication id, fail over
// across holders with timeouts and jittered backoff, charge exposure
// exactly once on the first success whose charge it can read, and verify
// a sampled fraction of answers against a second holder.
func (f *Fleet) proxy(w http.ResponseWriter, r *http.Request, path string) {
	f.requests.Add(1)
	rr := f.readRouted(w, r)
	if rr == nil {
		return
	}

	// Idempotent replay: a client resend with the same key gets the stored
	// response — same answers, same cumulative exposure — without touching
	// a replica or the ledger.
	idemKey := r.Header.Get("X-Idempotency-Key")
	if idemKey != "" {
		if cached := f.idemGet(idemKey); cached != nil {
			emit(w, cached)
			return
		}
	}

	client := rr.client
	if h := r.Header.Get(serve.ClientHeader); h != "" {
		client = h
		rr.hdr.Set(serve.ClientHeader, h)
	}
	if client == "" {
		client = "fleet"
	}

	// Budget precheck before any replica is touched: a client already at
	// quota gets the typed 429 with a window-derived Retry-After, pays no
	// replica work, and is never charged. The rejection is deliberately not
	// idempotency-cached — a resend after the window turns is a fresh
	// request and must be re-admitted. The actual charge lands in settle
	// (force-charged, since the batch size is only known from the response),
	// so one admitted oversized batch can overshoot; the next precheck stops
	// the client.
	if path != "/audit" {
		if res := f.budget.Precheck(client, rr.id, classFor(path)); !res.OK {
			f.budgetRejected.Add(1)
			serve.WriteErrorRetryAfter(w, http.StatusTooManyRequests, serve.CodeBudgetExhausted,
				fmt.Errorf("client %q over exposure budget (%s): window usage %d of quota %d",
					client, res.Reason, res.WindowUsed, res.Quota),
				res.RetryAfter)
			return
		}
	}

	// keyHash seeds the backoff jitter and the holder rotation — both
	// deterministic functions of the logical request, never of wall time.
	keyHash := fnv64(idemKey)
	if idemKey == "" {
		keyHash = fnv64(string(rr.body))
	}
	rr.mutations = rr.p.mutations.Load()

	lastCode, lastMsg := serve.CodeUnavailable, "no live holder"
	for attempt := 0; attempt < f.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			f.retries.Add(1)
			time.Sleep(f.backoff(keyHash, attempt))
		}
		rep, saturated := f.pick(rr.p.holders, keyHash, attempt)
		if rep == nil {
			if saturated {
				// Every admissible holder is at capacity: shed now rather
				// than queue retries behind an overload. Retry-After is the
				// full backoff schedule a queued retry would have burned —
				// the soonest a resend is likely to find a free slot.
				f.shed.Add(1)
				serve.WriteErrorRetryAfter(w, http.StatusTooManyRequests, serve.CodeOverloaded,
					fmt.Errorf("all %d holders of %q at capacity", len(rr.p.holders), rr.id),
					time.Duration(f.cfg.MaxAttempts)*f.cfg.BackoffMax)
				return
			}
			continue
		}

		rep.inflight.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), f.cfg.Timeout)
		resp, err := rep.do(ctx, http.MethodPost, path, rr.hdr, rr.body)
		cancel()
		rep.inflight.Add(-1)

		if err != nil {
			f.noteFailure(rep)
			lastCode, lastMsg = serve.CodeUnavailable, err.Error()
			continue
		}
		if resp.status >= 400 {
			code := serve.DecodeErrorCode(resp.status, resp.body)
			if code.Retryable() {
				// Handler-level transient (still building, draining): the
				// replica process is fine, so health is untouched.
				lastCode, lastMsg = code, fmt.Sprintf("replica %d: %s", rep.idx, code)
				continue
			}
			// Permanent: the replica answered definitively; relay verbatim.
			f.noteSuccess(rep)
			emit(w, resp)
			return
		}

		final, ok := f.settle(path, rr, rep, resp, client)
		if !ok {
			// A success the router cannot charge is as broken as a dropped
			// connection: relaying it would leave the batch off the ledger.
			f.noteFailure(rep)
			lastCode, lastMsg = serve.CodeUnavailable, fmt.Sprintf("replica %d: no readable charge in its response", rep.idx)
			continue
		}
		f.noteSuccess(rep)
		if attempt > 0 {
			f.failovers.Add(1)
		}
		if idemKey != "" {
			f.idemPut(idemKey, final)
		}
		emit(w, final)
		return
	}
	f.unavailable.Add(1)
	serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeUnavailable,
		fmt.Errorf("publication %q unavailable after %d attempts (last: %s: %s)",
			rr.id, f.cfg.MaxAttempts, lastCode, lastMsg))
}

// pick selects the next attempt's replica among a publication's holders:
// rotation starts at a key-derived offset, ejected replicas are skipped
// until their probe cooldown expires (then exactly one request wins the
// ejected→probing transition and carries the probe), and saturated
// replicas are skipped with the fact recorded so the caller can
// distinguish overload (shed) from death (retry, then unavailable).
func (f *Fleet) pick(holders []int, keyHash uint64, attempt int) (rep *replica, saturated bool) {
	start := int((keyHash + uint64(attempt)) % uint64(len(holders)))
	now := f.requests.Load()
	for k := 0; k < len(holders); k++ {
		cand := f.replicas[holders[(start+k)%len(holders)]]
		switch cand.state.Load() {
		case stateEjected:
			if now-cand.ejectedAt.Load() < f.cfg.ProbeAfter {
				continue
			}
			if !cand.state.CompareAndSwap(stateEjected, stateProbing) {
				continue
			}
			f.probes.Add(1)
			return cand, saturated
		case stateProbing:
			// Someone else's probe is in flight; one trial at a time.
			continue
		default:
			if cand.inflight.Load() >= f.cfg.MaxInFlight {
				saturated = true
				continue
			}
			return cand, saturated
		}
	}
	return nil, saturated
}

// backoff computes the sleep before retry attempt n: capped exponential in
// the attempt, scaled by a deterministic jitter fraction in [0.5, 1.0)
// drawn from the request key — no shared RNG, no lock, and identical
// requests back off identically.
func (f *Fleet) backoff(keyHash uint64, attempt int) time.Duration {
	d := f.cfg.BackoffBase << (attempt - 1)
	if d <= 0 || d > f.cfg.BackoffMax {
		d = f.cfg.BackoffMax
	}
	frac := 0.5 + float64(par.Mix64(keyHash+uint64(attempt))&1023)/2048
	return time.Duration(float64(d) * frac)
}

// noteFailure records one failed attempt: EjectAfter consecutive
// failures eject a healthy replica; a failed probe re-ejects immediately
// and restarts the cooldown.
func (f *Fleet) noteFailure(rep *replica) {
	n := rep.fails.Add(1)
	switch rep.state.Load() {
	case stateProbing:
		rep.ejectedAt.Store(f.requests.Load())
		rep.state.Store(stateEjected)
	case stateHealthy:
		if n >= int32(f.cfg.EjectAfter) && rep.state.CompareAndSwap(stateHealthy, stateEjected) {
			rep.ejectedAt.Store(f.requests.Load())
			f.ejections.Add(1)
		}
	}
}

// noteSuccess resets the failure streak and reinstates a probing replica.
func (f *Fleet) noteSuccess(rep *replica) {
	rep.fails.Store(0)
	if rep.state.Load() != stateHealthy && rep.state.CompareAndSwap(stateProbing, stateHealthy) {
		f.reinstated.Add(1)
	}
}

// settle finishes a successful routed response: read the replica's
// charge, verify every VerifyEvery-th against a second holder,
// charge the router's budget manager exactly once, and write the
// authoritative ledger into the body without touching the answers —
// patched in place in a frame, spliced over the router-owned group of a
// JSON body. The charge is force-applied (ChargeServed): the replica
// already did the work, so the ledger must record it even when it
// overshoots the quota — the precheck in proxy stops the client on its
// next request. Audits charge nothing and pass through unchanged. A false
// return means the body carries no readable charge.
func (f *Fleet) settle(path string, rr *routed, rep *replica, resp *response, client string) (*response, bool) {
	if path == "/audit" {
		return resp, true
	}
	frame := wire.IsFrame(resp.body)
	var at serve.JSONLedger // of a frame, only the charge
	var err error
	if frame {
		var led wire.Ledger
		led, err = wire.ReadLedger(resp.body)
		at.Charged = int64(led.Charged)
	} else {
		at, err = serve.ReadJSONLedger(resp.body)
	}
	if err != nil || at.Charged <= 0 {
		return nil, false
	}
	if f.cfg.VerifyEvery > 0 && f.settled.Add(1)%uint64(f.cfg.VerifyEvery) == 0 {
		f.verify(path, rr, rep.idx, resp.body)
	}
	led := serve.LedgerOf(f.budget.ChargeServed(client, rr.id, at.Charged, classFor(path)), f.cfg.Serve.ExposureWarn)
	body := resp.body
	if frame {
		// PatchLedger cannot fail here: ReadLedger accepted the same block.
		body, _ = wire.PatchLedger(body, []byte(client), led.Wire(at.Charged))
	} else {
		body = serve.SpliceJSONLedger(body, at, client, led)
	}
	return &response{status: resp.status, header: resp.header, body: body}, true
}

// classFor maps a routed path onto the budget charge class: reconstruction
// is the first class shed as a client nears quota.
func classFor(path string) budget.Class {
	if path == "/reconstruct" {
		return budget.ClassReconstruct
	}
	return budget.ClassQuery
}

// verify replays a sampled request against a second live holder and
// compares the answer bytes. Deterministic builds make replicas
// bit-identical, so any mismatch is real corruption — counted, never
// masked. A request that overlapped an insert or refresh fan-out is not
// verified: its two holders may have answered on either side of one batch.
// Verification failures to reach a second holder are skipped; this is
// sampling, not a quorum.
func (f *Fleet) verify(path string, rr *routed, primary int, primaryBody []byte) {
	want, ok := answerBytes(primaryBody)
	if !ok || rr.mutations%2 == 1 {
		return
	}
	for _, h := range rr.p.holders {
		rep := f.replicas[h]
		if h == primary || !rep.alive.Load() || rep.state.Load() != stateHealthy {
			continue
		}
		vh := rr.hdr.Clone()
		vh.Set("X-Fleet-Verify", "1")
		rep.inflight.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Timeout)
		resp, err := rep.do(ctx, http.MethodPost, path, vh, rr.body)
		cancel()
		rep.inflight.Add(-1)
		if err != nil || resp.status != http.StatusOK {
			return
		}
		got, ok := answerBytes(resp.body)
		if !ok || rr.p.mutations.Load() != rr.mutations {
			return
		}
		f.verified.Add(1)
		if !bytes.Equal(got, want) {
			f.verifyMismatches.Add(1)
		}
		return
	}
}

// answerBytes returns the bytes of a routed /query or /reconstruct
// response that the replica alone determines: a JSON body's opening, id
// and answers or results; a frame's answer block. Verification replays
// the original request body, so it compares two bodies of one encoding.
func answerBytes(body []byte) ([]byte, bool) {
	if wire.IsFrame(body) {
		b, err := wire.AnswerBlock(body)
		return b, err == nil
	}
	at, err := serve.ReadJSONLedger(body)
	return body[:at.Answers], err == nil
}

// --- idempotency replay cache ---

func (f *Fleet) idemGet(key string) *response {
	f.idem.mu.Lock()
	defer f.idem.mu.Unlock()
	return f.idem.m[key]
}

func (f *Fleet) idemPut(key string, resp *response) {
	f.idem.mu.Lock()
	defer f.idem.mu.Unlock()
	if _, ok := f.idem.m[key]; ok {
		return
	}
	for len(f.idem.order) >= maxIdempotencyEntries {
		oldest := f.idem.order[0]
		f.idem.order = f.idem.order[1:]
		delete(f.idem.m, oldest)
	}
	f.idem.m[key] = resp
	f.idem.order = append(f.idem.order, key)
}

// emit writes a stored response.
func emit(w http.ResponseWriter, resp *response) {
	for k, vs := range resp.header {
		w.Header()[k] = vs
	}
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// --- fan-out and fleet-level endpoints ---

func (f *Fleet) handlePublish(w http.ResponseWriter, r *http.Request) {
	f.requests.Add(1)
	var req serve.PublishRequest
	if !serve.DecodeJSON(w, r, &req) {
		return
	}
	id, err := f.Publish(req)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, f.pubView(id))
}

func (f *Fleet) handleRefresh(w http.ResponseWriter, r *http.Request) {
	f.requests.Add(1)
	var req struct {
		ID string `json:"id"`
	}
	if !serve.DecodeJSON(w, r, &req) {
		return
	}
	if f.lookup(req.ID) == nil {
		serve.WriteError(w, http.StatusNotFound, serve.CodeNotFound, fmt.Errorf("no publication %q", req.ID))
		return
	}
	if err := f.Refresh(req.ID); err != nil {
		serve.WriteError(w, http.StatusInternalServerError, serve.CodeInternal, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, f.pubView(req.ID))
}

// handleInsert routes one insert batch. Inserts mutate replica state, so
// unlike queries they fan out to every live holder of the publication, in
// one total order per publication (under the pub mutex — deterministic
// publishers fed identical batch streams stay bit-identical), and the body
// is appended verbatim to the pub's mutation log so a restarted holder
// replays the exact stream its peers applied. Both encodings route: the
// body is opaque beyond the head, forwarded byte-for-byte. Inserts charge
// no exposure, so there is no settle step — the first accepting holder's
// response is relayed as-is.
func (f *Fleet) handleInsert(w http.ResponseWriter, r *http.Request) {
	f.requests.Add(1)
	rr := f.readRouted(w, r)
	if rr == nil {
		return
	}

	// Replaying an insert would double-apply it; the idempotency cache is
	// what makes a client resend after a dropped response safe.
	idemKey := r.Header.Get("X-Idempotency-Key")
	if idemKey != "" {
		if cached := f.idemGet(idemKey); cached != nil {
			emit(w, cached)
			return
		}
	}

	p := rr.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mutations.Add(1)
	defer p.mutations.Add(1)
	var first *response
	var missed []int
	lastErr := "no live holder"
	for _, h := range p.holders {
		rep := f.replicas[h]
		if !rep.alive.Load() {
			// A dead holder misses the batch now and converges on restart:
			// the mutation log replay includes it.
			continue
		}
		rep.inflight.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), f.cfg.Timeout)
		resp, err := rep.do(ctx, http.MethodPost, "/insert", rr.hdr, rr.body)
		cancel()
		rep.inflight.Add(-1)
		if err != nil {
			// Transport failure: the holder is treated as dead for this batch
			// and repaired by restart replay, same as the alive=false case.
			f.noteFailure(rep)
			missed = append(missed, h)
			lastErr = err.Error()
			continue
		}
		f.noteSuccess(rep)
		if resp.status >= 400 {
			// Validation is deterministic, so every holder returns the same
			// verdict — relay the first rejection and log nothing. (A holder
			// that diverges from this assumption gains an extra batch, which
			// ReplicaAgreement surfaces as a digest mismatch.)
			emit(w, resp)
			return
		}
		if first == nil {
			first = resp
		}
	}
	if first == nil {
		f.unavailable.Add(1)
		serve.WriteError(w, http.StatusServiceUnavailable, serve.CodeUnavailable,
			fmt.Errorf("no live holder of %q accepted the insert (last: %s)", rr.id, lastErr))
		return
	}
	// Live holders that failed at the transport level missed a batch that is
	// now logged: mark them stale so they are never used as a checkpoint
	// source until restart replay repairs them.
	for _, h := range missed {
		p.markStale(h)
	}
	p.log = append(p.log, mutation{body: rr.body, binary: rr.binary})
	f.insertsRouted.Add(1)
	f.maybeCheckpoint(rr.id, p)
	if idemKey != "" {
		f.idemPut(idemKey, first)
	}
	emit(w, first)
}

// pubJSON is the fleet-level view of one placed publication.
type pubJSON struct {
	ID         string `json:"id"`
	Holders    []int  `json:"holders"`
	Generation int    `json:"generation"`
	// LogLen is the mutation-log length since the last checkpoint;
	// Checkpointed reports whether a stored snapshot exists.
	LogLen       int  `json:"log_len"`
	Checkpointed bool `json:"checkpointed"`
}

func (f *Fleet) pubView(id string) pubJSON {
	p := f.lookup(id)
	p.mu.Lock()
	gen, logLen, ckpt := p.gen, len(p.log), p.snap != nil
	p.mu.Unlock()
	return pubJSON{
		ID:           id,
		Holders:      append([]int(nil), p.holders...),
		Generation:   gen,
		LogLen:       logLen,
		Checkpointed: ckpt,
	}
}

func (f *Fleet) handlePublications(w http.ResponseWriter, r *http.Request) {
	f.requests.Add(1)
	if r.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, serve.CodeMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	f.pubs.mu.RLock()
	ids := make([]string, 0, len(f.pubs.m))
	for id := range f.pubs.m {
		ids = append(ids, id)
	}
	f.pubs.mu.RUnlock()
	slices.Sort(ids)
	out := make([]pubJSON, 0, len(ids))
	for _, id := range ids {
		out = append(out, f.pubView(id))
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

func (f *Fleet) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := f.Stats()
	status := "ok"
	if st.Alive < st.Replicas {
		status = "degraded"
	}
	if st.Alive == 0 {
		status = "down"
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"alive":    st.Alive,
		"replicas": st.Replicas,
	})
}

func (f *Fleet) handleStatsz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, f.Stats())
}
