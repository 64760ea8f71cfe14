package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/dataset"
)

// This file is the served audit surface: POST /audit runs the parallel
// per-group privacy audit the paper's criterion is defined against, on
// immutable publication state, so it never contends with queries or
// publishes. The adversary's batched reconstructions, POST /reconstruct,
// run on the batch core in batch.go.

// Audit endpoint defaults and caps.
const (
	defaultAuditTrials = 500
	maxAuditTrials     = 20000
	defaultAuditTop    = 20
	maxAuditTop        = 1000
	// maxAuditGroups caps an explicit max_groups request. 0 still means
	// "sweep every group", so the cap is not a work bound — it rejects
	// nonsensical explicit limits (far beyond any real group count) that
	// indicate a malformed client rather than a large sweep.
	maxAuditGroups = 1 << 20
	// maxCachedAudits bounds the audit result cache; beyond it an arbitrary
	// entry is dropped (audits are cheap to recompute and keyed
	// deterministically, so eviction policy hardly matters).
	maxCachedAudits = 256
	// auditTolerance is the Monte-Carlo slack when comparing empirical
	// tails against their Chernoff bounds.
	auditTolerance = 0.02
)

// auditRequest is the body of POST /audit.
type auditRequest struct {
	ID string `json:"id"`
	// Trials is the Monte-Carlo trial count per group (default 500, max
	// 20000).
	Trials int `json:"trials,omitempty"`
	// MaxGroups caps the audited groups, largest first; 0 sweeps every
	// personal group.
	MaxGroups int `json:"max_groups,omitempty"`
	// Top is how many per-group rows to return, largest groups first
	// (default 20, max 1000). Summary counters always cover every audited
	// group.
	Top int `json:"top,omitempty"`
	// Seed drives the audit's simulation randomness (default 1). Equal
	// (publication generation, trials, max_groups, seed) requests are
	// answered from cache.
	Seed int64 `json:"seed,omitempty"`
	// Wait blocks until a pending publication is ready instead of failing
	// with 409.
	Wait bool `json:"wait,omitempty"`
}

// auditGroupJSON is one personal group's audit row.
type auditGroupJSON struct {
	Key        string  `json:"key"`
	Size       int     `json:"size"`
	F          float64 `json:"f"`           // frequency of the audited (most frequent) value
	SG         float64 `json:"sg"`          // Eq. 10 threshold
	Violating  bool    `json:"violating"`   // Corollary 4 verdict on the raw group
	UpperEmp   float64 `json:"upper_emp"`   // empirical Pr[(F'-f)/f > λ]
	LowerEmp   float64 `json:"lower_emp"`   // empirical Pr[(F'-f)/f < -λ]
	UpperBound float64 `json:"upper_bound"` // Chernoff U (Corollary 3)
	LowerBound float64 `json:"lower_bound"` // Chernoff L (Corollary 3)
}

type auditResponse struct {
	ID         string `json:"id"`
	Generation int    `json:"generation"`
	Method     string `json:"method"`
	// SPS reports whether violating groups were simulated through the SPS
	// process (true for sps publications) or plain uniform perturbation.
	SPS       bool  `json:"sps"`
	Trials    int   `json:"trials"`
	Seed      int64 `json:"seed"`
	MaxGroups int   `json:"max_groups,omitempty"`
	// GroupsAudited counts the swept personal groups; Violating those
	// failing the Corollary 4 test on the raw data.
	GroupsAudited int `json:"groups_audited"`
	Violating     int `json:"violating_groups"`
	// BoundViolations counts plain-perturbed groups whose empirical tail
	// exceeded its Chernoff bound beyond the Monte-Carlo tolerance — zero
	// in a correct implementation. Under SPS, violating groups are
	// deliberately pushed past their raw-size bounds, so only
	// non-violating (plain-perturbed) groups are counted there.
	BoundViolations int              `json:"bound_violations"`
	AuditMS         float64          `json:"audit_ms"`
	Cached          bool             `json:"cached,omitempty"`
	Top             []auditGroupJSON `json:"top"`
}

// auditCacheKey identifies one audit result: everything that changes the
// output, including the publication generation (a refresh invalidates).
func auditCacheKey(pub *Publication, trials, maxGroups int, seed int64) string {
	return fmt.Sprintf("%s/g%d/t%d/m%d/s%d", pub.ID, pub.Generation, trials, maxGroups, seed)
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	var req auditRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	if req.Trials == 0 {
		req.Trials = defaultAuditTrials
	}
	if req.Trials < 1 || req.Trials > maxAuditTrials {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("trials must be in [1,%d], got %d", maxAuditTrials, req.Trials))
		return
	}
	if req.MaxGroups < 0 || req.MaxGroups > maxAuditGroups {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("max_groups must be in [0,%d], got %d", maxAuditGroups, req.MaxGroups))
		return
	}
	if req.Top == 0 {
		req.Top = defaultAuditTop
	}
	if req.Top < 0 || req.Top > maxAuditTop {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("top must be in [0,%d], got %d", maxAuditTop, req.Top))
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	pub, ok := s.resolvePublication(w, req.ID, req.Wait)
	if !ok {
		return
	}
	if pub.Groups == nil {
		WriteError(w, http.StatusConflict, CodeNoGroups,
			fmt.Errorf("publication %q has no raw group snapshot to audit", req.ID))
		return
	}

	key := auditCacheKey(pub, req.Trials, req.MaxGroups, req.Seed)
	if res := s.cachedAudit(key); res != nil {
		s.auditCacheHits.Add(1)
		writeAudit(w, res, true, req.Top)
		return
	}
	// Concurrent identical audits collapse into one sweep; the winner
	// populates the cache. auditRun distinguishes a run that executed the
	// sweep from one resolved by the inner cache double-check, and the
	// singleflight shared flag marks joiners — both are cache hits from the
	// caller's point of view.
	type auditRun struct {
		res       *auditResponse
		fromCache bool
	}
	v, err, shared := s.sf.Do("audit:"+key, func() (any, error) {
		if res := s.cachedAudit(key); res != nil {
			return &auditRun{res: res, fromCache: true}, nil
		}
		res, err := s.runAudit(pub, req)
		if err != nil {
			return nil, err
		}
		s.storeAudit(key, res)
		s.audits.Add(1)
		return &auditRun{res: res}, nil
	})
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	run := v.(*auditRun)
	cached := shared || run.fromCache
	if cached {
		s.auditCacheHits.Add(1)
	}
	writeAudit(w, run.res, cached, req.Top)
}

// writeAudit renders a cached-or-fresh audit result for one request: the
// shared result always carries the full maxAuditTop rows, and each response
// cuts its own Top — the row count is a presentation knob, not part of the
// cache identity.
func writeAudit(w http.ResponseWriter, res *auditResponse, cached bool, top int) {
	out := *res
	out.Cached = cached
	if top < len(out.Top) {
		out.Top = out.Top[:top]
	}
	WriteJSON(w, http.StatusOK, out)
}

// runAudit executes the parallel group sweep for one publication.
func (s *Server) runAudit(pub *Publication, req auditRequest) (*auditResponse, error) {
	sps := pub.Req.Method == MethodSPS
	start := time.Now()
	rep, err := core.AuditSweep(req.Seed, pub.Groups, pub.Req.Params(), sps, req.Trials, req.MaxGroups, s.cfg.QueryWorkers)
	if err != nil {
		return nil, err
	}
	res := &auditResponse{
		ID:         pub.ID,
		Generation: pub.Generation,
		Method:     pub.Req.Method,
		SPS:        sps,
		Trials:     req.Trials,
		Seed:       req.Seed,
		MaxGroups:  req.MaxGroups,
		AuditMS:    float64(time.Since(start).Microseconds()) / 1000,
	}
	res.GroupsAudited = len(rep.Groups)
	for _, g := range rep.Groups {
		if g.Violating {
			res.Violating++
		}
		plainPerturbed := !sps || !g.Violating
		if plainPerturbed && (g.UpperEmp > g.UpperBound+auditTolerance || g.LowerEmp > g.LowerBound+auditTolerance) {
			res.BoundViolations++
		}
	}
	// Materialize rows to the cache-wide maximum; writeAudit cuts each
	// response down to its request's Top.
	top := maxAuditTop
	if top > len(rep.Groups) {
		top = len(rep.Groups)
	}
	res.Top = make([]auditGroupJSON, top)
	for i := 0; i < top; i++ {
		g := rep.Groups[i]
		res.Top[i] = auditGroupJSON{
			Key:        formatGroupKey(pub.Groups.Schema, g.Key),
			Size:       g.Size,
			F:          g.F,
			SG:         g.SG,
			Violating:  g.Violating,
			UpperEmp:   g.UpperEmp,
			LowerEmp:   g.LowerEmp,
			UpperBound: g.UpperBound,
			LowerBound: g.LowerBound,
		}
	}
	return res, nil
}

// formatGroupKey renders a group key with the schema's labels. Unlike
// core.FormatKey it derives the NA order from the schema rather than the
// group set's internal cache, which group sets materialized outside
// GroupsOf (the incremental publisher's raw snapshot) do not carry.
func formatGroupKey(schema *dataset.Schema, key []uint16) string {
	var b strings.Builder
	for i, a := range schema.NAIndices() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(schema.Attrs[a].Name)
		b.WriteByte('=')
		if i < len(key) {
			b.WriteString(schema.Attrs[a].Label(key[i]))
		}
	}
	return b.String()
}

// cachedAudit returns the cached result for a key, or nil.
func (s *Server) cachedAudit(key string) *auditResponse {
	s.auditCache.mu.Lock()
	defer s.auditCache.mu.Unlock()
	return s.auditCache.m[key]
}

// storeAudit caches a result, evicting an arbitrary entry beyond the cap.
func (s *Server) storeAudit(key string, res *auditResponse) {
	s.auditCache.mu.Lock()
	defer s.auditCache.mu.Unlock()
	if s.auditCache.m == nil {
		s.auditCache.m = make(map[string]*auditResponse)
	}
	if len(s.auditCache.m) >= maxCachedAudits {
		for k := range s.auditCache.m {
			delete(s.auditCache.m, k)
			break
		}
	}
	s.auditCache.m[key] = res
}
