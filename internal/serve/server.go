package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/dataset"
)

// Config tunes the server; the zero value is fully usable.
type Config struct {
	// Shards is the registry shard count (default 16, rounded up to a power
	// of two).
	Shards int
	// QueryWorkers bounds the per-batch evaluation pool (default GOMAXPROCS).
	QueryWorkers int
	// PublishWorkers bounds the parallel publisher (default GOMAXPROCS).
	PublishWorkers int
	// PipelineWorkers bounds the cold-path preprocessing parallelism — the
	// fused chi-square generalization scan, the sharded grouping pass, and
	// the concurrent marginal-cube fill of every build and refresh
	// (default GOMAXPROCS). Results are bit-identical at any width; the
	// knob only trades build latency against CPU available for queries.
	PipelineWorkers int
	// MaxBatch caps the queries accepted per /query request (default 100,000).
	MaxBatch int
	// MaxInsert caps the records accepted per /insert request (default 100,000).
	MaxInsert int
	// CompactEvery bounds the marginal generation stack of an incremental
	// publication: once an insert append leaves more than this many
	// generations, a background compaction folds the stack into one flat
	// arena. Lower values trade compaction work for read amplification
	// (every cell read sums one value per generation). Answers and digests
	// are identical at any setting. Default 8; -1 disables compaction.
	CompactEvery int
	// ExposureWarn is the per-client cumulative answered-query count above
	// which query responses set exposure_warning — the operator's signal
	// that one client has gathered enough answers for a linear
	// reconstruction attack to start paying off. Default 50,000 (10× the
	// paper's 5,000-query workload); 0 keeps the default, -1 disables.
	ExposureWarn int64
	// MaxPublications caps the number of distinct publication keys the
	// registry will hold (default 1024). Publish requests arrive
	// unauthenticated and entries (tables, group sets, marginal cubes) are
	// never evicted, so without a cap a sweep of distinct data_seed/size
	// values could grow server memory without bound.
	MaxPublications int
	// AllowCSV permits the csv dataset source (reading server-local files
	// on behalf of clients); off by default.
	AllowCSV bool
	// BudgetQuota is the per-client exposure budget per sliding window,
	// enforced by the internal/budget manager: charges past it get a typed
	// budget_exhausted 429 with a Retry-After computed from the window.
	// 0 means budget.DefaultQuota (calibrated against the NIR audit, see
	// EXPERIMENTS.md); -1 disables enforcement while keeping the bounded
	// ledger and /statsz reporting.
	BudgetQuota int64
	// BudgetTrustedQuota is the quota for clients listed in BudgetTrusted
	// (0 = budget.DefaultTrustedFactor × BudgetQuota).
	BudgetTrustedQuota int64
	// BudgetTrusted lists client ids in the trusted tier.
	BudgetTrusted []string
	// BudgetPublicationQuota caps total charges per publication per window
	// (0 = budget.DefaultPubFactor × BudgetQuota; -1 disables).
	BudgetPublicationQuota int64
	// BudgetWindow is the sliding decay window (0 = budget.DefaultWindow).
	BudgetWindow time.Duration
	// BudgetSoftFraction of the quota past which reconstruct-class charges
	// are shed first — graceful degradation before the hard cutoff
	// (0 = budget.DefaultSoftFraction; -1 disables).
	BudgetSoftFraction float64
	// BudgetMaxTracked bounds exactly tracked clients; beyond it the
	// count-min sketch absorbs the tail (0 = budget.DefaultMaxTracked).
	BudgetMaxTracked int
	// Clock overrides the server's time source for uptime accounting
	// (/healthz and /statsz). It is a test and simulation hook: injecting a
	// fixed clock makes every time-derived /statsz field deterministic, so
	// harnesses like internal/sim can compare whole responses byte for
	// byte. nil means time.Now. Request latency measurement is deliberately
	// not routed through it — latency histograms measure real elapsed time.
	// A function cannot cross a process boundary, so the Config a fleet
	// hands a spawned replica as JSON leaves it behind.
	Clock func() time.Time `json:"-"`
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.QueryWorkers <= 0 {
		c.QueryWorkers = runtime.GOMAXPROCS(0)
	}
	if c.PublishWorkers <= 0 {
		c.PublishWorkers = runtime.GOMAXPROCS(0)
	}
	if c.PipelineWorkers <= 0 {
		c.PipelineWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 100000
	}
	if c.MaxInsert <= 0 {
		c.MaxInsert = 100000
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 8
	}
	if c.ExposureWarn == 0 {
		c.ExposureWarn = defaultExposureWarn
	}
	if c.MaxPublications <= 0 {
		c.MaxPublications = 1024
	}
	return c
}

// Server holds the publication registry and all serving state. Create with
// New, mount Handler on an http.Server. All methods are safe for concurrent
// use.
type Server struct {
	cfg   Config
	reg   *registry
	sf    singleflight
	start time.Time

	tables struct {
		mu sync.RWMutex
		m  map[string]*dataset.Table
	}

	// budget is the exposure ledger: bounded, quota-enforcing, typed
	// rejections. Every answered query and reconstruction charges it.
	budget *budget.Manager

	// Counters surfaced by /statsz. publishRuns counts actual pipeline
	// executions; publishRequests − publishRuns − refreshes = cacheHits.
	publishRequests    atomic.Uint64
	publishRuns        atomic.Uint64
	cacheHits          atomic.Uint64
	refreshes          atomic.Uint64
	refreshFailures    atomic.Uint64
	queryBatches       atomic.Uint64
	queriesAnswered    atomic.Uint64
	queryErrors        atomic.Uint64
	inserts            atomic.Uint64
	absorbed           atomic.Uint64
	ingestAppends      atomic.Uint64
	compactions        atomic.Uint64
	reconstructBatches atomic.Uint64
	reconstructions    atomic.Uint64
	audits             atomic.Uint64
	auditCacheHits     atomic.Uint64

	// auditCache holds completed audit sweeps keyed by (publication,
	// generation, parameters); see adversary.go.
	auditCache struct {
		mu sync.Mutex
		m  map[string]*auditResponse
	}

	// Drain state: once draining is set, the admission wrapper rejects new
	// work (except /healthz and /statsz) with a typed 503 while inflight
	// counts the requests still being served — Drain waits for it to reach
	// zero. inflight is incremented before the draining check, so a request
	// observed in flight is always counted.
	draining atomic.Bool
	inflight atomic.Int64

	lat latencyHist // /query and /reconstruct request latency
}

// New builds a Server.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults()}
	s.start = s.now()
	s.reg = newRegistry(s.cfg.Shards)
	s.tables.m = make(map[string]*dataset.Table)
	s.budget = budget.New(s.cfg.Budget())
	return s
}

// Budget is the exposure budget manager configuration the Budget* fields
// (and Clock) describe — the server's own ledger, and the fleet router's.
func (c Config) Budget() budget.Config {
	return budget.Config{
		Quota:            c.BudgetQuota,
		TrustedQuota:     c.BudgetTrustedQuota,
		Trusted:          c.BudgetTrusted,
		PublicationQuota: c.BudgetPublicationQuota,
		Window:           c.BudgetWindow,
		SoftFraction:     c.BudgetSoftFraction,
		MaxTracked:       c.BudgetMaxTracked,
		Clock:            c.Clock,
	}
}

// Budget exposes the server's budget manager; the fleet router uses it to
// disable replica-level enforcement and tests to inspect the ledger.
func (s *Server) Budget() *budget.Manager { return s.budget }

// now reads the configured clock (time.Now unless Config.Clock is set).
func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return time.Now()
}

// Handler returns the HTTP surface documented in the package comment,
// wrapped in the drain admission gate.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/publish", s.handlePublish)
	mux.HandleFunc("/publications", s.handlePublications)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/reconstruct", s.handleReconstruct)
	mux.HandleFunc("/audit", s.handleAudit)
	mux.HandleFunc("/refresh", s.handleRefresh)
	mux.HandleFunc("/insert", s.handleInsert)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/restore", s.handleRestore)
	mux.HandleFunc("/digest", s.handleDigest)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return s.admit(mux)
}

// admit is the drain gate in front of every handler: it tracks in-flight
// requests and, once draining, rejects new work with a typed 503 —
// observability endpoints stay open so operators can watch the drain.
// inflight is incremented before the draining check so Drain's wait-for-zero
// covers every admitted request.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.draining.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/statsz" {
			WriteError(w, http.StatusServiceUnavailable, CodeDraining, ErrDraining)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// BeginDrain flips the server into draining mode without waiting: new
// requests (except /healthz and /statsz) are rejected with a typed 503 from
// this point on. In-flight requests keep running.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain begins draining and blocks until every in-flight request has
// finished or the context expires, in which case the remaining count is
// reported in the error. It is idempotent and safe to call concurrently.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d requests still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Publish runs the publish path programmatically (the HTTP handler and
// tests share it): normalize, dedupe against the registry, build if new.
// A key whose previous build failed is retried — a transient failure (a
// CSV file that appears later, say) must not poison the key forever;
// buildMu ensures exactly one caller restarts the build and later callers
// join its completion channel. started reports whether this call kicked
// off a build (fresh or retry); !started is a cache hit. With wait,
// Publish blocks until the build it observed settles.
func (s *Server) Publish(req PublishRequest, wait bool) (e *Entry, started bool, err error) {
	if err := req.Normalize(); err != nil {
		return nil, false, err
	}
	if req.Dataset == DatasetCSV && !s.cfg.AllowCSV {
		return nil, false, fmt.Errorf("serve: csv sources are disabled (enable with -allow-csv)")
	}
	s.publishRequests.Add(1)
	key := req.Key()
	e, created, err := s.reg.getOrCreate(IDForKey(key), key, req, s.cfg.MaxPublications)
	if err != nil {
		return nil, false, err
	}
	if created {
		s.publishRuns.Add(1)
		go func() {
			pub, err := s.buildPublication(e, 0)
			e.settle(pub, err)
		}()
		if wait {
			<-e.done
		}
		return e, true, nil
	}

	// Existing entry: start a retry if its build failed, and pick the
	// channel that tracks the build this caller observed (the first build's
	// done, or the in-flight retry's channel — done is already closed once
	// the first build settles, so it cannot signal retries).
	waitCh, retried := s.retryOrJoin(e)
	if waitCh == nil {
		waitCh = e.done
	}
	if !retried {
		s.cacheHits.Add(1)
	}
	if wait {
		<-waitCh
	}
	return e, retried, nil
}

// retryOrJoin inspects an existing entry under buildMu: if its build
// failed, it starts a fresh generation-0 build and returns its completion
// channel (started = true); if a retry is already in flight, it returns
// that retry's channel; otherwise it returns nil. All restarts of a failed
// build go through here — Publish and /refresh included — so two rebuilds
// of one entry can never interleave their stores.
func (s *Server) retryOrJoin(e *Entry) (ch chan struct{}, started bool) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if e.retryDone != nil {
		return e.retryDone, false
	}
	if e.state.Load() != stateFailed {
		return nil, false
	}
	s.publishRuns.Add(1)
	c := make(chan struct{})
	e.retryDone = c
	e.state.Store(statePending)
	go func() {
		pub, err := s.buildPublication(e, 0)
		e.settle(pub, err)
		e.buildMu.Lock()
		e.retryDone = nil
		e.buildMu.Unlock()
		close(c)
	}()
	return c, true
}

// --- wire types ---

// publicationJSON is the /publications and /publish view of an entry.
type publicationJSON struct {
	ID           string     `json:"id"`
	Status       string     `json:"status"`
	Error        string     `json:"error,omitempty"`
	Dataset      string     `json:"dataset"`
	Size         int        `json:"size,omitempty"`
	Method       string     `json:"method"`
	P            float64    `json:"p"`
	Lambda       float64    `json:"lambda"`
	Delta        float64    `json:"delta"`
	Significance float64    `json:"significance"`
	Seed         int64      `json:"seed"`
	MaxDim       int        `json:"max_dim"`
	Generation   int        `json:"generation"`
	CreatedAt    time.Time  `json:"created_at"`
	BuildMS      float64    `json:"build_ms,omitempty"`
	Meta         *metaJSON  `json:"meta,omitempty"`
	Attrs        []attrJSON `json:"attrs,omitempty"`
	SAttr        *attrJSON  `json:"sensitive,omitempty"`
	Cached       bool       `json:"cached,omitempty"`
}

type metaJSON struct {
	Records          int     `json:"records"`
	RecordsOut       int     `json:"records_out"`
	Groups           int     `json:"groups"`
	ViolatingGroups  int     `json:"violating_groups"`
	ViolatingRecords int     `json:"violating_records"`
	SampledGroups    int     `json:"sampled_groups"`
	MaxGroupSize     int     `json:"max_group_size"`
	AvgGroupSize     float64 `json:"avg_group_size"`
}

type attrJSON struct {
	Name string `json:"name"`
	// Index is the attribute's position in the full schema (sensitive
	// attribute included) — the attr code a binary-wire condition carries.
	// The Attrs array alone cannot recover it when the sensitive attribute
	// sits mid-schema.
	Index  int      `json:"index"`
	Domain int      `json:"domain"`
	Values []string `json:"values,omitempty"`
}

// entryJSON renders an entry; withDomains adds the original value labels
// clients may use in query conditions.
func entryJSON(e *Entry, withDomains bool) publicationJSON {
	req := &e.reqCopy
	out := publicationJSON{
		ID:           e.id,
		Status:       stateName(e.state.Load()),
		Dataset:      req.Dataset,
		Size:         req.Size,
		Method:       req.Method,
		P:            req.P,
		Lambda:       req.Lambda,
		Delta:        req.Delta,
		Significance: *req.Significance,
		Seed:         req.Seed,
		MaxDim:       req.MaxDim,
		CreatedAt:    e.created,
	}
	if msg := e.failure.Load(); msg != nil {
		out.Error = *msg
	}
	if pub := e.pub.Load(); pub != nil {
		out.Generation = pub.Generation
		out.BuildMS = float64(pub.BuildTime.Microseconds()) / 1000
		out.Meta = &metaJSON{
			Records:          pub.Meta.Records,
			RecordsOut:       pub.Meta.RecordsOut,
			Groups:           pub.Meta.Groups,
			ViolatingGroups:  pub.Meta.ViolatingGroups,
			ViolatingRecords: pub.Meta.ViolatingRecords,
			SampledGroups:    pub.Meta.SampledGroups,
			MaxGroupSize:     pub.Meta.MaxGroupSize,
			AvgGroupSize:     pub.Meta.AvgGroupSize,
		}
		if withDomains {
			for i := range pub.Orig.Attrs {
				a := &pub.Orig.Attrs[i]
				aj := attrJSON{Name: a.Name, Index: i, Domain: a.Domain(), Values: append([]string(nil), a.Values...)}
				if i == pub.Orig.SA {
					out.SAttr = &aj
				} else {
					out.Attrs = append(out.Attrs, aj)
				}
			}
		}
	}
	return out
}

// --- handlers ---

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req PublishRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	e, started, err := s.Publish(req, req.Wait)
	if err != nil {
		if errors.Is(err, ErrCapacity) {
			WriteError(w, http.StatusTooManyRequests, CodeCapacity, err)
			return
		}
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	out := entryJSON(e, false)
	out.Cached = !started
	code := http.StatusOK
	if e.state.Load() == statePending {
		code = http.StatusAccepted
	}
	WriteJSON(w, code, out)
}

func (s *Server) handlePublications(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	withDomains := r.URL.Query().Get("domains") != ""
	if id := r.URL.Query().Get("id"); id != "" {
		e := s.reg.get(id)
		if e == nil {
			WriteError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("no publication %q", id))
			return
		}
		WriteJSON(w, http.StatusOK, entryJSON(e, withDomains))
		return
	}
	entries := s.reg.list()
	out := make([]publicationJSON, 0, len(entries))
	for _, e := range entries {
		out = append(out, entryJSON(e, withDomains))
	}
	WriteJSON(w, http.StatusOK, out)
}

// resolvePublication loads the ready publication behind id, handling the
// pending and failed states.
func (s *Server) resolvePublication(w http.ResponseWriter, id string, wait bool) (*Publication, bool) {
	e := s.reg.get(id)
	if e == nil {
		WriteError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("no publication %q", id))
		return nil, false
	}
	if e.state.Load() == statePending {
		if !wait {
			WriteError(w, http.StatusConflict, CodeBuilding,
				fmt.Errorf("publication %q is still building (retry, or set wait)", id))
			return nil, false
		}
		<-e.done
	}
	if e.state.Load() == stateFailed {
		msg := "publication failed"
		if m := e.failure.Load(); m != nil {
			msg = *m
		}
		WriteError(w, http.StatusBadGateway, CodeBuildFailed, fmt.Errorf("publication %q: %s", id, msg))
		return nil, false
	}
	if e.pub.Load() == nil {
		// A retry of a failed first build is in flight: done is already
		// closed but no publication exists yet.
		WriteError(w, http.StatusConflict, CodeRebuilding,
			fmt.Errorf("publication %q is rebuilding (retry shortly)", id))
		return nil, false
	}
	return e.pub.Load(), true
}

// refreshRequest is the body of POST /refresh.
type refreshRequest struct {
	ID   string `json:"id"`
	Wait bool   `json:"wait,omitempty"`
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	var req refreshRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	e := s.reg.get(req.ID)
	if e == nil {
		WriteError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("no publication %q", req.ID))
		return
	}
	if req.Wait {
		if _, err := s.Refresh(req.ID); err != nil {
			WriteError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		WriteJSON(w, http.StatusOK, entryJSON(e, false))
		return
	}
	s.refreshes.Add(1)
	go s.sf.Do("refresh:"+req.ID, s.refreshRun(e, req.ID))
	WriteJSON(w, http.StatusAccepted, entryJSON(e, false))
}

// Refresh republishes the publication behind id with a fresh generation and
// blocks until the rebuild settles — the waiting form of POST /refresh,
// which delegates here; concurrent refreshes of one id collapse into one
// rebuild via singleflight. It returns the entry so callers can read the
// refreshed publication.
func (s *Server) Refresh(id string) (*Entry, error) {
	e := s.reg.get(id)
	if e == nil {
		return nil, fmt.Errorf("serve: no publication %q", id)
	}
	s.refreshes.Add(1)
	if _, err, _ := s.sf.Do("refresh:"+id, s.refreshRun(e, id)); err != nil {
		return nil, err
	}
	return e, nil
}

// refreshRun builds the singleflight closure behind one refresh of an entry.
func (s *Server) refreshRun(e *Entry, id string) func() (any, error) {
	return func() (any, error) {
		<-e.done // a refresh of a still-building publication waits for it
		// Refreshing an entry whose build failed (or is being retried) IS
		// the retry; routing it through the shared buildMu path keeps two
		// rebuilds of one entry from ever interleaving their stores.
		if ch, _ := s.retryOrJoin(e); ch != nil {
			<-ch
			if e.state.Load() != stateReady {
				msg := "build failed"
				if m := e.failure.Load(); m != nil {
					msg = *m
				}
				s.refreshFailures.Add(1)
				return nil, fmt.Errorf("publication %q: %s", id, msg)
			}
			return e.pub.Load(), nil
		}
		// The entry is ready and cannot become failed while we rebuild
		// (only first-build/retry settles set that state, and none can be
		// in flight here), so the publication swap below is safe.
		generation := e.pub.Load().Generation + 1
		var pub *Publication
		var err error
		if e.inc != nil {
			// An incremental refresh re-runs SPS over the publisher's raw
			// histograms and holds incMu from the rebuild to the pointer
			// store, so an insert lands either before the rebuild or as a
			// delta on the new generation.
			start := time.Now()
			e.incMu.Lock()
			if err = e.inc.Rebuild(); err == nil {
				pub, err = s.indexIncremental(e, generation, start)
			}
			if err == nil {
				e.pub.Store(pub)
			}
			e.incMu.Unlock()
		} else if pub, err = s.buildPublication(e, generation); err == nil {
			e.pub.Store(pub)
		}
		if err != nil {
			// The old publication keeps serving; surface the failure on the
			// entry (visible in /publications) and in /statsz rather than
			// dropping it.
			s.refreshFailures.Add(1)
			msg := "refresh: " + err.Error()
			e.failure.Store(&msg)
			return nil, err
		}
		e.failure.Store(nil)
		return pub, nil
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": s.now().Sub(s.start).Seconds(),
	})
}

// statszResponse is the /statsz body.
type statszResponse struct {
	Publications    int    `json:"publications"`
	Pending         int    `json:"pending"`
	PublishRequests uint64 `json:"publish_requests"`
	PublishRuns     uint64 `json:"publish_runs"`
	CacheHits       uint64 `json:"cache_hits"`
	Refreshes       uint64 `json:"refreshes"`
	RefreshFailures uint64 `json:"refresh_failures"`
	QueryBatches    uint64 `json:"query_batches"`
	QueriesAnswered uint64 `json:"queries_answered"`
	QueryErrors     uint64 `json:"query_errors"`
	Inserts         uint64 `json:"inserts"`
	InsertsAbsorbed uint64 `json:"inserts_absorbed"`
	// IngestAppends counts insert batches indexed by appending a delta
	// generation (the streaming fast path); it is deterministic for a
	// deterministic workload. Compactions counts completed background
	// generation-stack compactions — compaction timing is asynchronous, so
	// harnesses must treat this counter as advisory, never byte-compare it.
	IngestAppends uint64 `json:"ingest_appends"`
	Compactions   uint64 `json:"compactions"`
	// ReconstructBatches / Reconstructions count POST /reconstruct traffic
	// (batches and condition sets answered); Audits counts actual audit
	// sweeps run, AuditCacheHits responses served from the audit cache.
	ReconstructBatches uint64 `json:"reconstruct_batches"`
	Reconstructions    uint64 `json:"reconstructions"`
	Audits             uint64 `json:"audits"`
	AuditCacheHits     uint64 `json:"audit_cache_hits"`
	// Clients counts exactly tracked clients in the budget manager. It is
	// exact for those clients; once the count-min sketch absorbs an
	// untracked tail it is a lower bound on the distinct-client total
	// (sketch-resident clients are not enumerable).
	Clients int `json:"clients"`
	// TotalCharged is the lifetime sum of accepted exposure charges across
	// all clients — exact, and the same number a fleet router's /statsz
	// reports, so single-server and fleet surfaces stay consistent.
	TotalCharged int64 `json:"total_charged"`
	// Draining reports whether the drain gate is rejecting new work; InFlight
	// is the number of requests currently being served (including the /statsz
	// request reporting it).
	Draining bool  `json:"draining"`
	InFlight int64 `json:"in_flight"`
	// MaxClientQueries is the largest per-client cumulative answered-query
	// count among exactly tracked clients — the most exposed client's
	// total, the number the exposure warning compares against. Exact for
	// tracked clients; a promoted (seeded) client's total is a sketch
	// upper bound.
	MaxClientQueries int64 `json:"max_client_queries"`
	// Budget reports the exposure budget manager: quotas, occupancy,
	// rejection counters, and the sketch's error bounds.
	Budget        BudgetStatsz `json:"budget"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	QueriesPerSec float64      `json:"queries_per_second"`
	// LatencyObservations is the total request count recorded in the
	// latency histogram — every successfully answered /query and
	// /reconstruct request adds exactly one. Workload harnesses use it as a
	// conservation check: at quiescence it must equal the number of such
	// requests issued, or the server dropped or double-counted one.
	LatencyObservations uint64 `json:"latency_observations"`
	LatencyUS           struct {
		Mean float64 `json:"mean"`
		P50  float64 `json:"p50"`
		P90  float64 `json:"p90"`
		P99  float64 `json:"p99"`
	} `json:"query_latency_us"`
}

// BudgetStatsz is the /statsz view of the exposure budget manager.
// Counts labeled exact are exact; sketch-resident clients (promoted past
// MaxTracked or never tracked) carry count-min upper bounds, whose error is
// bounded by SketchEpsilon × TotalCharged with probability 1 − SketchDelta.
type BudgetStatsz struct {
	Enforced         bool    `json:"enforced"`
	Quota            int64   `json:"quota"`
	TrustedQuota     int64   `json:"trusted_quota"`
	PublicationQuota int64   `json:"publication_quota"`
	WindowSeconds    float64 `json:"window_seconds"`
	// Occupancy is the most budget-consumed tracked client's window usage
	// as a fraction of its quota — 1.0 means someone is pinned at the limit.
	Occupancy float64 `json:"occupancy"`
	// TrackedClients hold exact ledgers; SeededClients were promoted out of
	// the sketch, so their ledgers are upper bounds until the window turns.
	TrackedClients      int     `json:"tracked_clients"`
	SeededClients       int     `json:"seeded_clients"`
	TrackedPublications int     `json:"tracked_publications"`
	Charges             uint64  `json:"charges"`
	RejectedClientQuota uint64  `json:"rejected_client_quota"`
	RejectedPubQuota    uint64  `json:"rejected_publication_quota"`
	RejectedDegraded    uint64  `json:"rejected_degraded"`
	Promotions          uint64  `json:"promotions"`
	Evictions           uint64  `json:"evictions"`
	SketchWidth         int     `json:"sketch_width"`
	SketchDepth         int     `json:"sketch_depth"`
	SketchEpsilon       float64 `json:"sketch_epsilon"`
	SketchDelta         float64 `json:"sketch_delta"`
	MemoryBytes         int64   `json:"memory_bytes"`
}

// BudgetStatszOf maps a manager snapshot onto the /statsz shape.
func BudgetStatszOf(bs budget.Stats) BudgetStatsz {
	return BudgetStatsz{
		Enforced:            bs.Enforced,
		Quota:               bs.Quota,
		TrustedQuota:        bs.TrustedQuota,
		PublicationQuota:    bs.PublicationQuota,
		WindowSeconds:       bs.WindowSeconds,
		Occupancy:           bs.Occupancy,
		TrackedClients:      bs.Tracked,
		SeededClients:       bs.Seeded,
		TrackedPublications: bs.TrackedPubs,
		Charges:             bs.Charges,
		RejectedClientQuota: bs.RejectedClientQuota,
		RejectedPubQuota:    bs.RejectedPublication,
		RejectedDegraded:    bs.RejectedDegraded,
		Promotions:          bs.Promotions,
		Evictions:           bs.Evictions,
		SketchWidth:         bs.SketchWidth,
		SketchDepth:         bs.SketchDepth,
		SketchEpsilon:       bs.SketchEpsilon,
		SketchDelta:         bs.SketchDelta,
		MemoryBytes:         bs.MemoryBytes,
	}
}

// Stats snapshots the serving counters (also used by tests).
func (s *Server) Stats() statszResponse {
	var out statszResponse
	out.Publications, out.Pending = s.reg.counts()
	out.PublishRequests = s.publishRequests.Load()
	out.PublishRuns = s.publishRuns.Load()
	out.CacheHits = s.cacheHits.Load()
	out.Refreshes = s.refreshes.Load()
	out.RefreshFailures = s.refreshFailures.Load()
	out.QueryBatches = s.queryBatches.Load()
	out.QueriesAnswered = s.queriesAnswered.Load()
	out.QueryErrors = s.queryErrors.Load()
	out.Inserts = s.inserts.Load()
	out.InsertsAbsorbed = s.absorbed.Load()
	out.IngestAppends = s.ingestAppends.Load()
	out.Compactions = s.compactions.Load()
	out.ReconstructBatches = s.reconstructBatches.Load()
	out.Reconstructions = s.reconstructions.Load()
	out.Audits = s.audits.Load()
	out.AuditCacheHits = s.auditCacheHits.Load()
	bs := s.budget.Snapshot()
	out.Clients = bs.Tracked
	out.MaxClientQueries = bs.MaxClientTotal
	out.TotalCharged = bs.TotalCharged
	out.Budget = BudgetStatszOf(bs)
	out.Draining = s.draining.Load()
	out.InFlight = s.inflight.Load()
	up := s.now().Sub(s.start).Seconds()
	out.UptimeSeconds = up
	if up > 0 {
		out.QueriesPerSec = float64(out.QueriesAnswered) / up
	}
	out.LatencyObservations = s.lat.Count()
	out.LatencyUS.Mean = float64(s.lat.Mean().Nanoseconds()) / 1000
	out.LatencyUS.P50 = float64(s.lat.Quantile(0.50).Nanoseconds()) / 1000
	out.LatencyUS.P90 = float64(s.lat.Quantile(0.90).Nanoseconds()) / 1000
	out.LatencyUS.P99 = float64(s.lat.Quantile(0.99).Nanoseconds()) / 1000
	return out
}

// Lookup returns the registry entry behind a publication id, or nil.
// Exported for embedding layers (internal/fleet) that manage replicas
// in-process and need direct entry access — digest comparison, generation
// inspection — without an HTTP round-trip.
func (s *Server) Lookup(id string) *Entry { return s.reg.get(id) }

// LatencyObservations returns the request count recorded in the latency
// histogram (see statszResponse.LatencyObservations). Exported for workload
// harnesses that cross-check it against their own issued-request tallies.
func (s *Server) LatencyObservations() uint64 { return s.lat.Count() }

// ClientExposure returns one client's cumulative charged query count (0 for
// a client the server has never answered). Exported so workload harnesses
// can verify the exposure ledger against the charges their clients observed.
// Exact for clients the budget manager tracks exactly; a count-min upper
// bound once the client has been folded into the sketch.
func (s *Server) ClientExposure(client string) int64 {
	total, _ := s.budget.Estimate(client)
	return total
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

// --- exposure accounting ---

// ClientHeader is the request header that names the client for exposure
// accounting, ahead of the body's client. It is in canonical form, so
// Header.Get looks it up without allocating.
const ClientHeader = "X-Client-Id"

// clientID picks the exposure-accounting identity: explicit header, then
// request body, then the remote IP.
func clientID(r *http.Request, bodyClient string) string {
	if id := r.Header.Get(ClientHeader); id != "" {
		return id
	}
	if bodyClient != "" {
		return bodyClient
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// chargeExposure charges n exposure units for client against pub before any
// evaluation work happens. On rejection it writes the typed budget_exhausted
// response — HTTP 429 with a Retry-After computed from the sliding window —
// and returns ok=false; the rejected request is never charged.
func (s *Server) chargeExposure(w http.ResponseWriter, client, pubID string, n int64, class budget.Class) (budget.Result, bool) {
	res := s.budget.Charge(client, pubID, n, class)
	if res.OK {
		return res, true
	}
	err := fmt.Errorf("client %q over exposure budget (%s): window usage %d + charge %d exceeds quota %d",
		client, res.Reason, res.WindowUsed, n, res.Quota)
	WriteErrorRetryAfter(w, http.StatusTooManyRequests, CodeBudgetExhausted, err, res.RetryAfter)
	return res, false
}

// --- JSON plumbing ---

// jsonIndent is WriteJSON's indent, which SpliceJSONLedger matches.
const jsonIndent = "  "

// WriteJSON renders v as the indented JSON body of a response with the
// given status — every JSON body either surface emits, the fleet router's
// included.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", jsonIndent)
	enc.Encode(v)
}
