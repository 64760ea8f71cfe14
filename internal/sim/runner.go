package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/fleet"
	"github.com/reconpriv/reconpriv/internal/par"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/stats"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// Options configure one simulation run.
type Options struct {
	// Scenario is the workload to execute (see Scenarios / Lookup).
	Scenario Scenario
	// Seed drives every random draw of the run; equal (Scenario, Seed,
	// Clients, Steps) inputs yield byte-identical summaries.
	Seed int64
	// Clients and Steps override the scenario defaults when positive.
	Clients int
	Steps   int
	// Think is the maximum per-step pause; each client draws a uniform
	// fraction of it from its stream before every operation (the arrival
	// schedule). The fraction is drawn even at Think == 0 so the operation
	// sequence — and hence the summary — is independent of pacing.
	Think time.Duration
	// ClientTimeout bounds each simulated client's HTTP exchanges (default
	// 30s). Without it a stuck server would hang the whole run; it must
	// comfortably exceed the fleet's worst retry chain (MaxAttempts × the
	// per-attempt timeout plus backoff), so a timed-out client is always a
	// real failure, never an impatient one.
	ClientTimeout time.Duration
	// Config is the traffic server's configuration, or each replica's on a
	// fleet. Clock is overridden with a fixed epoch so time-derived /statsz
	// fields are deterministic.
	Config serve.Config
	// forceJSON disables the deterministic JSON/binary query alternation
	// (test hook: the mixed-encoding digest must equal the all-JSON one).
	forceJSON bool
}

// simEpoch is the fixed clock injected into every simulated server.
var simEpoch = time.Unix(1700000000, 0)

// clientTimeout resolves the client-side HTTP timeout.
func (o Options) clientTimeout() time.Duration {
	if o.ClientTimeout > 0 {
		return o.ClientTimeout
	}
	return 30 * time.Second
}

// auditSeeds is the fixed pool audit operations draw their seed from. Audit
// verdicts are Monte-Carlo with a fixed tolerance, so keeping the seeds
// independent of the run seed pins the verdicts (they are validated by the
// repo's own audit tests) while still exercising the server's audit cache.
var auditSeeds = []int64{1, 2, 3, 4}

// clientSeed derives client idx's stream seed from the run seed with the
// SplitMix64 finalizer, giving well-separated per-client streams (idx + 1
// keeps client 0 off the raw run seed, which the publication itself uses).
func clientSeed(seed int64, idx int) int64 {
	return int64(par.Mix64(uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)))
}

// --- wire mirrors of the serve response bodies the simulator decodes ---

type answerWire struct {
	Count    int     `json:"count"`
	Estimate float64 `json:"estimate"`
	Error    string  `json:"error"`
}

type queryWire struct {
	Answers         []answerWire `json:"answers"`
	ClientQueries   int64        `json:"client_queries"`
	BudgetRemaining int64        `json:"budget_remaining"`
	BudgetExact     bool         `json:"budget_exact"`
}

type reconstructionWire struct {
	Size  int                `json:"size"`
	Freqs map[string]float64 `json:"freqs"`
	Error string             `json:"error"`
}

type reconstructWire struct {
	Results         []reconstructionWire `json:"results"`
	ClientQueries   int64                `json:"client_queries"`
	BudgetRemaining int64                `json:"budget_remaining"`
	BudgetExact     bool                 `json:"budget_exact"`
}

type insertWire struct {
	Inserted     int `json:"inserted"`
	Trials       int `json:"trials"`
	Absorbed     int `json:"absorbed"`
	TotalRecords int `json:"total_records"`
}

type entryWire struct {
	ID         string `json:"id"`
	Status     string `json:"status"`
	Generation int    `json:"generation"`
	Error      string `json:"error"`
}

type auditWire struct {
	GroupsAudited   int  `json:"groups_audited"`
	Violating       int  `json:"violating_groups"`
	BoundViolations int  `json:"bound_violations"`
	Cached          bool `json:"cached"`
}

type statszWire struct {
	QueryBatches        uint64 `json:"query_batches"`
	QueriesAnswered     uint64 `json:"queries_answered"`
	QueryErrors         uint64 `json:"query_errors"`
	Inserts             uint64 `json:"inserts"`
	ReconstructBatches  uint64 `json:"reconstruct_batches"`
	Reconstructions     uint64 `json:"reconstructions"`
	Audits              uint64 `json:"audits"`
	AuditCacheHits      uint64 `json:"audit_cache_hits"`
	Refreshes           uint64 `json:"refreshes"`
	IngestAppends       uint64 `json:"ingest_appends"`
	Compactions         uint64 `json:"compactions"`
	LatencyObservations uint64 `json:"latency_observations"`
	Clients             int    `json:"clients"`
	TotalCharged        int64  `json:"total_charged"`
	Budget              struct {
		Enforced            bool    `json:"enforced"`
		Occupancy           float64 `json:"occupancy"`
		TrackedClients      int     `json:"tracked_clients"`
		Charges             uint64  `json:"charges"`
		RejectedClientQuota uint64  `json:"rejected_client_quota"`
		RejectedPubQuota    uint64  `json:"rejected_publication_quota"`
		RejectedDegraded    uint64  `json:"rejected_degraded"`
	} `json:"budget"`
}

// clientResult is one client's deterministic tallies plus its latency
// samples.
type clientResult struct {
	ops     OpTally
	queries int64
	subsets int64
	// inserted counts the records this client inserted, per publication.
	inserted    []int64
	charged     int64
	latObserved int64 // successfully answered /query + /reconstruct requests
	digest      uint64
	lats        map[string][]time.Duration

	// Budget-scenario state: per-identity accepted charges (the local
	// mirror of the server's exact ledgers; identity pools are disjoint per
	// worker so no two goroutines share an entry) and rejection tallies by
	// mirror reason and by operation kind.
	idents      map[string]int64
	rejClient   int64
	rejDegraded int64
	rejQuery    int64
	rejRecon    int64
}

// runner drives one scenario against its target — one serve.Server, or a
// fleet.Fleet behind its router — over the same loopback HTTP surface.
// Exactly one of srv and f is set; only the checks that need that target's
// internals read it.
type runner struct {
	opts    Options
	sc      Scenario
	clients int
	steps   int

	srv  *serve.Server
	f    *fleet.Fleet
	base string
	hc   *http.Client

	// pubs are the placed publications' generation-0 builds on ref, an
	// in-process reference server at PipelineWorkers 1 given the same
	// publish requests as the target: the schema handles workloads are
	// drawn from, and the raw groups the Bernstein envelope is checked
	// against. Deterministic builds make them identical to what the target
	// serves at generation 0.
	ref  *serve.Server
	pubs []*serve.Publication
	m    int // SA domain size (shared schema)

	check *checker

	// One server: the served entry, whose raw stream the end-of-run insert
	// conservation reads.
	entry *serve.Entry

	// Budget-scenario state: the shared zipf sampler (stateless after
	// construction) and the quota mirror. softQuota is the shed threshold
	// for reconstruct-class charges, computed exactly as the manager does.
	zipf      *stats.Zipf
	quota     int64
	softQuota int64

	// One server: ref and wide are the bit-identity witnesses, serving the
	// publication at PipelineWorkers 1 and at the traffic server's width.
	// pairMu serializes their refreshes so generations advance in lockstep
	// and every comparison is like for like.
	pairMu sync.Mutex
	wide   *serve.Server

	// Fleet: the resolved plan and its chaos schedule. ops is the global
	// operation counter the schedule keys off; killAt/restartAt are the
	// thresholds (0 = disabled), victim the replica they target. Exactly
	// one client observes each counter value.
	plan      FleetPlan
	ops       atomic.Int64
	killAt    int64
	restartAt int64
	victim    int
	kills     atomic.Int64
	restarts  atomic.Int64
}

// Run executes one scenario and returns its result. Setup failures (invalid
// scenario, publication build errors) are returned as errors; invariant
// violations are reported in the summary, never as an error.
func Run(opts Options) (*Result, error) {
	sc := opts.Scenario
	if err := sc.validate(); err != nil {
		return nil, err
	}
	r := &runner{
		opts:    opts,
		sc:      sc,
		clients: opts.Clients,
		steps:   opts.Steps,
		check:   &checker{},
	}
	if r.clients <= 0 {
		r.clients = sc.Clients
	}
	if r.steps <= 0 {
		r.steps = sc.Steps
	}

	cfg := opts.Config
	if cfg.Clock == nil {
		cfg.Clock = func() time.Time { return simEpoch }
	}
	if sc.CompactEvery != 0 {
		cfg.CompactEvery = sc.CompactEvery
	}
	if b := sc.Budget; b != nil {
		cfg.BudgetQuota = b.Quota
		cfg.BudgetSoftFraction = b.SoftFraction
		// The publication quota is shared across identities; whether one
		// request trips it would depend on goroutine interleaving, so it is
		// disabled to keep every admission decision per-identity.
		cfg.BudgetPublicationQuota = -1
		r.zipf = stats.NewZipf(b.ZipfS, uint64(b.IdentityPool))
		r.quota = b.Quota
		soft := b.SoftFraction
		if soft == 0 {
			soft = budget.DefaultSoftFraction
		}
		if soft > 0 {
			r.softQuota = int64(soft * float64(r.quota))
		}
	} else {
		// Non-budget scenarios measure serving behavior, not admission:
		// their load generators run in the trusted tier, whose 4x quota
		// clears every scenario's worst-case per-client charge at default
		// scale (the adversary scenario's all-reconstruct client tops out
		// at 4000 units). The default tier stays at the adversarially
		// calibrated budget.DefaultQuota, which those clients would trip.
		cfg.BudgetTrusted = append([]string(nil), trustedClientIDs(r.clients)...)
	}

	var target http.Handler
	if sc.Fleet != nil {
		r.plan = sc.Fleet.withDefaults()
		fcfg := fleet.Config{
			Replicas:          r.plan.Replicas,
			ReplicationFactor: r.plan.ReplicationFactor,
			Timeout:           r.plan.Timeout,
			CheckpointLog:     r.plan.CheckpointLog,
			Serve:             cfg,
		}
		if r.plan.CrossProcess {
			f, err := fleet.NewProcs(fcfg)
			if err != nil {
				return nil, fmt.Errorf("sim: spawning cross-process fleet: %w", err)
			}
			r.f = f
		} else {
			r.f = fleet.New(fcfg)
		}
		defer r.f.Close()
		target = r.f.Handler()
	} else {
		r.srv = serve.New(cfg)
		target = r.srv.Handler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	hs := &http.Server{Handler: target}
	go hs.Serve(ln)
	defer hs.Close()
	r.base = "http://" + ln.Addr().String()
	r.hc = &http.Client{
		Timeout:   opts.clientTimeout(),
		Transport: &http.Transport{MaxIdleConnsPerHost: r.clients + 2},
	}

	if err := r.setup(cfg); err != nil {
		return nil, err
	}

	start := time.Now()
	results := make([]clientResult, r.clients)
	var wg sync.WaitGroup
	for i := 0; i < r.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.runClient(i, &results[i])
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	return r.finish(results, wall)
}

// publishRequest is placed publication i's request: the scenario's, with a
// distinct seed per publication so placement spreads them across replicas.
func (r *runner) publishRequest(i int) serve.PublishRequest {
	req := r.sc.Publish
	req.Seed += int64(i)
	req.Wait = true
	return req
}

// setup publishes the scenario's publications through the target, builds
// them on the reference server, and runs the start-of-life checks.
func (r *runner) setup(cfg serve.Config) error {
	n := 1
	if r.f != nil {
		n = r.plan.Publications
	}
	r.ref = serve.New(serve.Config{PipelineWorkers: 1, Clock: cfg.Clock})
	for i := 0; i < n; i++ {
		req := r.publishRequest(i)
		var view entryWire
		if code, err := r.postJSON("", nil, "/publish", "", req, &view); err != nil || code != http.StatusOK {
			return fmt.Errorf("sim: publish %d returned %d: %v (%s)", i, code, err, view.Error)
		}
		pub, err := publishOn(r.ref, req)
		if err != nil {
			return fmt.Errorf("sim: reference publish %d: %w", i, err)
		}
		r.pubs = append(r.pubs, pub)
	}
	r.m = r.pubs[0].Marg.SADomain()

	var health struct {
		Status string `json:"status"`
	}
	code, err := r.getJSON("/healthz", &health)
	r.check.check(err == nil && code == http.StatusOK && health.Status == "ok",
		"healthz returned %d %q (%v)", code, health.Status, err)

	if r.f != nil {
		// Chaos schedule: thresholds on the shared op counter, victim the
		// top-ranked holder of publication 0 so the kill always hits a
		// replica that matters.
		total := int64(r.clients * r.steps)
		if r.plan.KillAtFrac > 0 {
			r.killAt = max(1, int64(r.plan.KillAtFrac*float64(total)))
		}
		if r.plan.RestartAtFrac > 0 {
			r.restartAt = max(r.killAt+1, int64(r.plan.RestartAtFrac*float64(total)))
		}
		r.victim = r.f.Holders(r.pubs[0].ID)[0]
		return nil
	}

	r.entry = r.srv.Lookup(r.pubs[0].ID)
	if r.entry == nil {
		return fmt.Errorf("sim: server lost publication %s", r.pubs[0].ID)
	}
	served, err := r.entry.Publication()
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	// Bit-identity witnesses: the same publication built at PipelineWorkers
	// 1 and at the traffic server's width must fingerprint identically —
	// now, and after every mid-simulation refresh.
	r.wide = serve.New(serve.Config{PipelineWorkers: cfg.PipelineWorkers, Clock: cfg.Clock})
	pubB, err := publishOn(r.wide, r.publishRequest(0))
	if err != nil {
		return fmt.Errorf("sim: pair publish: %w", err)
	}
	dA, dB, dServed := r.pubs[0].Digest(), pubB.Digest(), served.Digest()
	r.check.check(dA == dB && dA == dServed,
		"generation-0 publications diverge across PipelineWorkers: 1-worker %s, full-width %s, served %s",
		dA, dB, dServed)
	return nil
}

// publishOn builds a publication on an in-process server and waits for it.
func publishOn(s *serve.Server, req serve.PublishRequest) (*serve.Publication, error) {
	e, _, err := s.Publish(req, true)
	if err != nil {
		return nil, err
	}
	return e.Publication()
}

// trustedClientIDs lists the fixed worker ids ("c000", "c001", ...) for
// the trusted budget tier of non-budget scenarios.
func trustedClientIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%03d", i)
	}
	return ids
}

// runClient executes one client's schedule.
func (r *runner) runClient(idx int, res *clientResult) {
	rng := stats.NewRand(clientSeed(r.opts.Seed, idx))
	id := fmt.Sprintf("c%03d", idx)
	res.lats = make(map[string][]time.Duration)
	res.inserted = make([]int64, len(r.pubs))
	if r.sc.Budget != nil {
		res.idents = make(map[string]int64)
	}
	digest := stats.NewDigest()
	for step := 0; step < r.steps; step++ {
		// Arrival schedule: the pause fraction is drawn unconditionally so
		// the operation sequence does not depend on the Think setting.
		frac := rng.Float64()
		if r.opts.Think > 0 {
			time.Sleep(time.Duration(frac * float64(r.opts.Think)))
		}
		r.chaos(r.ops.Add(1))
		// One idempotency key per logical operation: a router-side retry of
		// this operation must charge exposure once, never twice.
		idem := fmt.Sprintf("%s-s%04d", id, step)
		switch pickOp(rng, r.sc.Mix) {
		case opQuery:
			res.ops.Query++
			r.doQuery(rng, r.opIdentity(rng, idx, id), idem, res, digest)
		case opInsert:
			res.ops.Insert++
			r.doInsert(rng, idem, res)
		case opRefresh:
			res.ops.Refresh++
			r.doRefresh(rng, idem, res)
		case opReconstruct:
			res.ops.Reconstruct++
			r.doReconstruct(rng, r.opIdentity(rng, idx, id), idem, res)
		case opAudit:
			res.ops.Audit++
			r.doAudit(rng, idem, res)
		}
	}
	res.digest = digest.Sum64()
}

// opIdentity picks the client id issuing the next charged operation: the
// worker's fixed id normally, a zipf-ranked identity from the worker's
// disjoint pool under a budget plan. Each identity belongs to exactly one
// worker goroutine, so its accept/reject sequence depends only on its own
// drawn history — never on cross-worker interleaving.
func (r *runner) opIdentity(rng *stats.Rand, idx int, def string) string {
	if r.sc.Budget == nil {
		return def
	}
	return fmt.Sprintf("z%02d-%04d", idx, r.zipf.Draw(rng))
}

// Operation kinds, in Mix order.
const (
	opQuery = iota
	opInsert
	opRefresh
	opReconstruct
	opAudit
)

// pickOp draws one operation from the weighted mix.
func pickOp(rng *stats.Rand, m Mix) int {
	x := rng.Intn(m.total())
	for i, w := range [...]int{m.Query, m.Insert, m.Refresh, m.Reconstruct, m.Audit} {
		if x < w {
			return i
		}
		x -= w
	}
	return opQuery
}

// pickPub draws the index of the publication one operation targets. It
// draws from the client's stream only when more than one publication is
// placed, so a seed draws the same workload against one server as against
// a fleet.
func (r *runner) pickPub(rng *stats.Rand) int {
	if len(r.pubs) == 1 {
		return 0
	}
	return rng.Intn(len(r.pubs))
}

// randomConds draws 1..MaxDim distinct public attributes of pub with
// uniform in-domain original labels.
func randomConds(rng *stats.Rand, pub *serve.Publication) []serve.CondJSON {
	na := pub.Orig.NAIndices()
	maxDim := pub.Req.MaxDim
	if maxDim > len(na) {
		maxDim = len(na)
	}
	dim := 1 + rng.Intn(maxDim)
	perm := rng.Perm(len(na))[:dim]
	conds := make([]serve.CondJSON, dim)
	for j, pi := range perm {
		attr := &pub.Orig.Attrs[na[pi]]
		conds[j] = serve.CondJSON{Attr: attr.Name, Value: attr.Values[rng.Intn(attr.Domain())]}
	}
	return conds
}

// doQuery issues one query batch and validates shape, answers and exposure.
func (r *runner) doQuery(rng *stats.Rand, id, idem string, res *clientResult, digest *stats.Digest) {
	pub := r.pubs[r.pickPub(rng)]
	sa := pub.Orig.SAAttr()
	qs := make([]serve.QueryJSON, r.sc.QueriesPerBatch)
	for i := range qs {
		qs[i] = serve.QueryJSON{Conds: randomConds(rng, pub), SA: sa.Values[rng.Intn(r.m)]}
	}
	n := int64(len(qs))
	binary := res.ops.Query%2 == 0 && !r.opts.forceJSON
	var payload []byte
	ctype := "application/json"
	if binary {
		// Even batches ride the binary framing; see binary.go for why this
		// choice must not consume the client's randomness.
		frame, ferr := encodeQueryFrame(pub.Orig, pub.ID, id, qs)
		if !r.check.check(ferr == nil, "encoding binary query batch: %v", ferr) {
			return
		}
		payload, ctype = frame, wire.ContentType
	} else {
		var merr error
		payload, merr = json.Marshal(map[string]any{"id": pub.ID, "client": id, "queries": qs, "wait": true})
		if !r.check.check(merr == nil, "encoding query batch: %v", merr) {
			return
		}
	}
	code, retryAfter, body, err := r.post("query", res, "/query", ctype, idem, payload)
	if r.sc.Budget != nil && code == http.StatusTooManyRequests {
		res.rejQuery++
		r.checkReject("query", id, n, false, retryAfter, body, res)
		return
	}
	if !r.check.check(err == nil && code == http.StatusOK, "query returned %d (%v)", code, err) {
		return
	}
	var resp queryWire
	if binary {
		err = decodeQueryFrame(body, &resp)
	} else {
		err = json.Unmarshal(body, &resp)
	}
	if !r.check.check(err == nil, "decoding query response: %v", err) {
		return
	}
	res.latObserved++
	res.queries += n
	res.charged += n
	r.check.check(len(resp.Answers) == len(qs), "query batch of %d got %d answers", len(qs), len(resp.Answers))
	if r.sc.Budget != nil {
		r.checkAccepted("query", id, n, false, resp.ClientQueries, resp.BudgetRemaining, resp.BudgetExact, res)
	} else {
		r.check.check(resp.ClientQueries == res.charged,
			"client %s exposure: target says %d, local ledger %d — lost or double-charged",
			id, resp.ClientQueries, res.charged)
	}
	for i := range resp.Answers {
		a := &resp.Answers[i]
		if !r.check.check(a.Error == "", "query %d failed: %s", i, a.Error) {
			continue
		}
		if r.sc.DeterministicAnswers() {
			digest.Word(uint64(a.Count))
			digest.Word(math.Float64bits(a.Estimate))
		}
	}
}

// admit mirrors budget.Manager's admission rule under the frozen simulation
// clock: the window never rotates, so an identity's window usage equals its
// accepted lifetime charges. Order matters and matches the manager: the
// hard quota is checked before the reconstruct-shedding soft threshold.
func (r *runner) admit(used, n int64, reconstruct bool) (bool, string) {
	if used+n > r.quota {
		return false, "client_quota"
	}
	if reconstruct && r.softQuota > 0 && used+n > r.softQuota {
		return false, "degraded"
	}
	return true, ""
}

// checkAccepted validates the ledger block of one accepted charge against
// the identity's mirror and the hard quota invariant, then lands the charge
// in the mirror.
func (r *runner) checkAccepted(op, id string, n int64, reconstruct bool, clientQueries, remaining int64, exact bool, res *clientResult) {
	used := res.idents[id]
	ok, _ := r.admit(used, n, reconstruct)
	r.check.check(ok, "%s for %s accepted by server, but mirror had %d used of quota %d for a charge of %d",
		op, id, used, r.quota, n)
	want := used + n
	res.idents[id] = want
	r.check.check(clientQueries == want,
		"%s identity %s ledger: server says %d, mirror %d", op, id, clientQueries, want)
	r.check.check(want <= r.quota,
		"%s identity %s charged to %d, past quota %d", op, id, want, r.quota)
	r.check.check(remaining == r.quota-want,
		"%s identity %s remaining budget: server says %d, want %d", op, id, remaining, r.quota-want)
	r.check.check(exact,
		"%s identity %s budget counts flagged as estimates; every sim identity must be exactly tracked", op, id)
}

// checkReject validates one 429 rejection: typed error body, integer
// Retry-After, mirror agreement that the charge had to be refused, and —
// by leaving the mirror untouched — that rejected ops are never charged
// (the next accepted response's ledger would diverge otherwise, and
// finish() compares final ledgers identity by identity).
func (r *runner) checkReject(op, id string, n int64, reconstruct bool, retryAfter string, body []byte, res *clientResult) {
	var eb struct {
		Code string `json:"code"`
	}
	jerr := json.Unmarshal(body, &eb)
	r.check.check(jerr == nil && eb.Code == "budget_exhausted",
		"%s rejection for %s carries error code %q (%v)", op, id, eb.Code, jerr)
	secs, aerr := strconv.Atoi(retryAfter)
	r.check.check(aerr == nil && secs >= 1,
		"%s rejection for %s Retry-After %q is not a positive integer", op, id, retryAfter)
	used := res.idents[id]
	ok, reason := r.admit(used, n, reconstruct)
	r.check.check(!ok,
		"%s for %s rejected by server, but mirror had %d used of quota %d for a charge of %d",
		op, id, used, r.quota, n)
	if reason == "degraded" {
		res.rejDegraded++
	} else {
		res.rejClient++
	}
}

// doInsert streams one record batch and validates it arrived intact: a
// fleet fans it out to every live holder and logs it for restart replay.
func (r *runner) doInsert(rng *stats.Rand, idem string, res *clientResult) {
	pi := r.pickPub(rng)
	pub := r.pubs[pi]
	recs := make([]map[string]string, r.sc.RecordsPerInsert)
	schema := pub.Orig
	for i := range recs {
		rec := make(map[string]string, schema.NumAttrs())
		for ai := range schema.Attrs {
			attr := &schema.Attrs[ai]
			rec[attr.Name] = attr.Values[rng.Intn(attr.Domain())]
		}
		recs[i] = rec
	}
	var resp insertWire
	code, err := r.postJSON("insert", res, "/insert", idem,
		map[string]any{"id": pub.ID, "records": recs, "wait": true}, &resp)
	if !r.check.check(err == nil && code == http.StatusOK, "insert returned %d (%v)", code, err) {
		return
	}
	res.inserted[pi] += int64(len(recs))
	r.check.check(resp.Inserted == len(recs), "inserted %d of %d records", resp.Inserted, len(recs))
	r.check.check(resp.Trials+resp.Absorbed == resp.Inserted,
		"insert of %d split into %d trials + %d absorbed", resp.Inserted, resp.Trials, resp.Absorbed)
	r.check.check(int64(resp.TotalRecords) >= int64(pub.Meta.Records)+res.inserted[pi],
		"total_records %d below initial %d + own inserts %d: rows dropped",
		resp.TotalRecords, pub.Meta.Records, res.inserted[pi])
}

// doRefresh advances a publication's generation. On one server it then
// advances the bit-identity pair in lockstep and compares fingerprints.
func (r *runner) doRefresh(rng *stats.Rand, idem string, res *clientResult) {
	pub := r.pubs[r.pickPub(rng)]
	var resp entryWire
	code, err := r.postJSON("refresh", res, "/refresh", idem,
		map[string]any{"id": pub.ID, "wait": true}, &resp)
	if !r.check.check(err == nil && code == http.StatusOK, "refresh returned %d (%v): %s", code, err, resp.Error) {
		return
	}
	// The router's publication view carries no build status.
	r.check.check((r.f != nil || resp.Status == "ready") && resp.Generation >= 1,
		"refreshed publication is %s at generation %d", resp.Status, resp.Generation)
	if r.f != nil {
		return
	}

	r.pairMu.Lock()
	defer r.pairMu.Unlock()
	pubA, errA := refreshOn(r.ref, pub.ID)
	pubB, errB := refreshOn(r.wide, pub.ID)
	if !r.check.check(errA == nil && errB == nil, "pair refresh failed: %v / %v", errA, errB) {
		return
	}
	r.check.check(pubA.Generation == pubB.Generation,
		"pair generations diverged: %d vs %d", pubA.Generation, pubB.Generation)
	dA, dB := pubA.Digest(), pubB.Digest()
	r.check.check(dA == dB,
		"generation-%d publications diverge across PipelineWorkers: 1-worker %s, full-width %s",
		pubA.Generation, dA, dB)
}

// refreshOn refreshes an in-process witness server and returns the new
// publication.
func refreshOn(s *serve.Server, id string) (*serve.Publication, error) {
	e, err := s.Refresh(id)
	if err != nil {
		return nil, err
	}
	return e.Publication()
}

// doReconstruct issues one reconstruction batch, validates shape and
// exposure charging, and — on plain-perturbation scenarios — checks every
// reconstruction against the Bernstein envelope of the raw groups.
func (r *runner) doReconstruct(rng *stats.Rand, id, idem string, res *clientResult) {
	pub := r.pubs[r.pickPub(rng)]
	subsets := make([][]serve.CondJSON, r.sc.SubsetsPerBatch)
	for i := range subsets {
		subsets[i] = randomConds(rng, pub)
	}
	n := int64(len(subsets)) * int64(r.m)
	payload, merr := json.Marshal(map[string]any{"id": pub.ID, "client": id, "subsets": subsets, "wait": true})
	if !r.check.check(merr == nil, "encoding reconstruct batch: %v", merr) {
		return
	}
	code, retryAfter, body, err := r.post("reconstruct", res, "/reconstruct", "application/json", idem, payload)
	if r.sc.Budget != nil && code == http.StatusTooManyRequests {
		res.rejRecon++
		r.checkReject("reconstruct", id, n, true, retryAfter, body, res)
		return
	}
	if !r.check.check(err == nil && code == http.StatusOK, "reconstruct returned %d (%v)", code, err) {
		return
	}
	var resp reconstructWire
	if !r.check.check(json.Unmarshal(body, &resp) == nil, "decoding reconstruct response") {
		return
	}
	res.latObserved++
	res.subsets += int64(len(subsets))
	res.charged += n
	r.check.check(len(resp.Results) == len(subsets),
		"reconstruct batch of %d got %d results", len(subsets), len(resp.Results))
	if r.sc.Budget != nil {
		r.checkAccepted("reconstruct", id, n, true, resp.ClientQueries, resp.BudgetRemaining, resp.BudgetExact, res)
	} else {
		r.check.check(resp.ClientQueries == res.charged,
			"client %s exposure after reconstruct: target says %d, local ledger %d — lost or double-charged",
			id, resp.ClientQueries, res.charged)
	}
	for i := range resp.Results {
		rec := &resp.Results[i]
		if !r.check.check(rec.Error == "", "reconstruction %d failed: %s", i, rec.Error) {
			continue
		}
		if !r.sc.CheckBernstein {
			continue
		}
		conds, err := pub.ResolveConds(subsets[i])
		if !r.check.check(err == nil, "resolving subset %d: %v", i, err) {
			continue
		}
		raw, size := rawSubsetCounts(pub.Groups, conds)
		r.check.check(rec.Size == size,
			"subset %d: published size %d, raw size %d — plain perturbation must preserve counts", i, rec.Size, size)
		if size == 0 {
			continue
		}
		sa := pub.Orig.SAAttr()
		freqs := make([]float64, r.m)
		for v := 0; v < r.m; v++ {
			freqs[v] = rec.Freqs[sa.Label(uint16(v))]
		}
		r.check.checkBernstein(fmt.Sprintf("subset %d", i), raw, size, freqs, pub.Req.P)
	}
}

// doAudit runs one audit and validates the Chernoff verdicts.
func (r *runner) doAudit(rng *stats.Rand, idem string, res *clientResult) {
	pub := r.pubs[r.pickPub(rng)]
	seed := auditSeeds[rng.Intn(len(auditSeeds))]
	var resp auditWire
	code, err := r.postJSON("audit", res, "/audit", idem,
		map[string]any{"id": pub.ID, "trials": r.sc.AuditTrials, "seed": seed, "top": 5, "wait": true}, &resp)
	if !r.check.check(err == nil && code == http.StatusOK, "audit returned %d (%v)", code, err) {
		return
	}
	r.check.check(resp.GroupsAudited > 0, "audit swept no groups")
	r.check.check(resp.BoundViolations == 0,
		"audit found %d groups beyond their Chernoff bounds", resp.BoundViolations)
}

// exposure reads one client's charged total from the target's
// authoritative ledger: the server's, or the router's.
func (r *runner) exposure(client string) int64 {
	if r.f != nil {
		return r.f.ClientExposure(client)
	}
	return r.srv.ClientExposure(client)
}

// finish runs the end-of-run conservation checks and assembles the result.
func (r *runner) finish(results []clientResult, wall time.Duration) (*Result, error) {
	sum := Summary{
		Scenario:       r.sc.Name,
		Seed:           r.opts.Seed,
		Clients:        r.clients,
		StepsPerClient: r.steps,
	}
	var digest uint64
	var latObserved int64
	var rejQuery, rejRecon int64
	lats := make(map[string][]time.Duration)
	for i := range results {
		res := &results[i]
		sum.Ops.Query += res.ops.Query
		sum.Ops.Insert += res.ops.Insert
		sum.Ops.Refresh += res.ops.Refresh
		sum.Ops.Reconstruct += res.ops.Reconstruct
		sum.Ops.Audit += res.ops.Audit
		sum.Queries += res.queries
		sum.Subsets += res.subsets
		for _, n := range res.inserted {
			sum.RecordsInserted += n
		}
		sum.ChargedQueries += res.charged
		rejQuery += res.rejQuery
		rejRecon += res.rejRecon
		latObserved += res.latObserved
		digest ^= res.digest
		for op, ds := range res.lats {
			lats[op] = append(lats[op], ds...)
		}
	}

	// Exactly-once exposure per client: the target's authoritative ledger
	// must equal what each client observed being charged — on a fleet, no
	// answered operation lost and none double-charged across retries and
	// failovers. Budget scenarios compare per zipf identity instead.
	if r.sc.Budget == nil {
		for i := range results {
			id := fmt.Sprintf("c%03d", i)
			got := r.exposure(id)
			r.check.check(got == results[i].charged,
				"client %s final exposure: target ledger %d, charges observed %d", id, got, results[i].charged)
		}
	} else {
		sum.Budget = r.finishBudget(results)
	}

	// measuredQueries is the tally issued inside the timed window; the final
	// conservation query below lands after wall was measured, so it counts
	// toward the summary and the statsz cross-checks but not the throughput.
	measuredQueries := sum.Queries
	var fleetTiming *FleetTiming

	if r.f != nil {
		// The router's aggregate must equal the sum of per-client charges.
		r.check.check(r.f.TotalExposure() == sum.ChargedQueries,
			"fleet aggregate exposure %d, sum of per-client charges %d", r.f.TotalExposure(), sum.ChargedQueries)

		// Replica agreement: every publication with a live holder must serve
		// bit-identical state on all of them — including a restarted victim,
		// which rebuilt from the request and replayed missed generations.
		for _, pub := range r.pubs {
			err := r.f.ReplicaAgreement(pub.ID)
			r.check.check(err == nil, "replica agreement on %s: %v", pub.ID, err)
		}

		st := r.f.Stats()
		r.check.check(st.VerifyMismatches == 0,
			"%d sampled answers disagreed across replicas", st.VerifyMismatches)
		r.check.check(st.TotalCharged == sum.ChargedQueries,
			"router statsz charged %d, clients observed %d", st.TotalCharged, sum.ChargedQueries)
		if r.killAt > 0 {
			r.check.check(r.kills.Load() == 1, "kill fired %d times, want 1", r.kills.Load())
		}
		if r.restartAt > 0 {
			r.check.check(r.restarts.Load() == 1, "restart fired %d times, want 1", r.restarts.Load())
		}

		// Checkpoint bound: with folding enabled, no publication's mutation
		// log may end the run at or above the threshold — every crossing
		// must have folded into a snapshot (the run restarts its only killed
		// replica, so a live checkpoint source always exists).
		if r.plan.CheckpointLog > 0 {
			for _, pub := range r.pubs {
				l := r.f.MutationLogLen(pub.ID)
				r.check.check(l < r.plan.CheckpointLog,
					"publication %s mutation log at %d, threshold %d: checkpointing never folded it", pub.ID, l, r.plan.CheckpointLog)
			}
		}

		sum.Fleet = &FleetSummary{
			Replicas:          r.plan.Replicas,
			ReplicationFactor: r.plan.ReplicationFactor,
			Transport:         r.f.Transport(),
			Publications:      len(r.pubs),
			Kills:             r.kills.Load(),
			Restarts:          r.restarts.Load(),
			VerifyMismatches:  st.VerifyMismatches,
		}
		fleetTiming = &FleetTiming{
			Requests:    st.Requests,
			Retries:     st.Retries,
			Failovers:   st.Failovers,
			Ejections:   st.Ejections,
			Probes:      st.Probes,
			Reinstated:  st.Reinstated,
			Shed:        st.Shed,
			Unavailable: st.Unavailable,
			Verified:    st.Verified,
			Checkpoints: st.Checkpoints,
		}
	} else {
		var finalBatches int64

		// Insert conservation: once every client is done, the raw stream —
		// the ingested record count and the raw group histograms behind the
		// audit — must total the initial batch plus every inserted record.
		// An insert extends the served index before it is acknowledged, and
		// refreshes serialize with inserts on the stream mutex, so this holds
		// without any repair; it also covers any background compactions that
		// landed mid-run: compaction rewrites the index representation, never
		// the totals. The final query below repairs nothing; it is one more
		// served read, and the summary counts it like any other. The
		// published snapshot is deliberately not compared: a refresh rebuilds
		// through SPS scaling, whose rounding may publish a few more or fewer
		// records than were ingested; the group-size conservation claim is
		// about the raw histograms never dropping rows.
		if r.sc.Mix.Insert > 0 {
			pub0 := r.pubs[0]
			finalRng := stats.NewRand(clientSeed(r.opts.Seed, r.clients))
			var resp queryWire
			q := serve.QueryJSON{Conds: randomConds(finalRng, pub0), SA: pub0.Orig.SAAttr().Values[0]}
			code, err := r.postJSON("", nil, "/query", "",
				map[string]any{"id": pub0.ID, "client": "sim-final", "queries": []serve.QueryJSON{q}, "wait": true}, &resp)
			if r.check.check(err == nil && code == http.StatusOK, "final query returned %d (%v)", code, err) {
				latObserved++
				sum.Queries++
				sum.ChargedQueries++
				finalBatches++
			}
			pub, err := r.entry.Publication()
			if r.check.check(err == nil, "final publication: %v", err) {
				want := int64(pub0.Meta.Records) + sum.RecordsInserted
				r.check.check(int64(pub.Meta.Records) == want,
					"raw records %d after %d inserts on %d initial: want %d — rows dropped or duplicated",
					pub.Meta.Records, sum.RecordsInserted, pub0.Meta.Records, want)
				r.check.check(pub.Groups != nil && int64(pub.Groups.Total()) == want,
					"raw group histograms total %d, want %d — group-size conservation broken",
					pub.Groups.Total(), want)
			}
		}

		// Latency-histogram conservation, via the accessor and over the wire.
		r.check.check(int64(r.srv.LatencyObservations()) == latObserved,
			"latency histogram holds %d observations, %d query/reconstruct requests answered",
			r.srv.LatencyObservations(), latObserved)
		var st statszWire
		code, err := r.getJSON("/statsz", &st)
		if r.check.check(err == nil && code == http.StatusOK, "statsz returned %d (%v)", code, err) {
			r.check.check(int64(st.LatencyObservations) == latObserved,
				"statsz latency_observations %d, want %d", st.LatencyObservations, latObserved)
			r.check.check(int64(st.QueriesAnswered) == sum.Queries,
				"statsz queries_answered %d, want %d", st.QueriesAnswered, sum.Queries)
			// Budget-rejected batches are refused before any counter or
			// latency observation, so the server-side tallies cover accepted
			// ones only.
			acceptedQ := sum.Ops.Query - rejQuery + finalBatches
			r.check.check(int64(st.QueryBatches) == acceptedQ,
				"statsz query_batches %d, want %d", st.QueryBatches, acceptedQ)
			r.check.check(st.QueryErrors == 0, "statsz reports %d query errors", st.QueryErrors)
			r.check.check(int64(st.Reconstructions) == sum.Subsets,
				"statsz reconstructions %d, want %d", st.Reconstructions, sum.Subsets)
			r.check.check(int64(st.ReconstructBatches) == sum.Ops.Reconstruct-rejRecon,
				"statsz reconstruct_batches %d, want %d", st.ReconstructBatches, sum.Ops.Reconstruct-rejRecon)
			r.check.check(int64(st.Inserts) == sum.RecordsInserted,
				"statsz inserts %d, want %d", st.Inserts, sum.RecordsInserted)
			r.check.check(int64(st.Refreshes) == sum.Ops.Refresh,
				"statsz refreshes %d, want %d issued", st.Refreshes, sum.Ops.Refresh)
			if r.sc.Mix.Insert > 0 && r.sc.Mix.Refresh == 0 {
				// Every publication-pointer writer (append, compaction
				// install, refresh) serializes on the stream mutex, so each
				// insert appends exactly one delta generation: ingest_appends
				// is a pure function of the operation tallies and joins the
				// deterministic summary of scenarios without refreshes.
				// Compactions stay advisory — a compaction that loses its
				// install race to a concurrent append is discarded — so only a
				// loose bound applies.
				r.check.check(int64(st.IngestAppends) == sum.Ops.Insert,
					"statsz ingest_appends %d, want one per insert batch (%d)", st.IngestAppends, sum.Ops.Insert)
				sum.IngestAppends = int64(st.IngestAppends)
				r.check.check(st.Compactions <= st.IngestAppends,
					"statsz compactions %d exceeds ingest_appends %d", st.Compactions, st.IngestAppends)
			}
			r.check.check(int64(st.Audits+st.AuditCacheHits) == sum.Ops.Audit,
				"statsz audits %d + cache hits %d, want %d issued", st.Audits, st.AuditCacheHits, sum.Ops.Audit)
			if b := sum.Budget; b != nil {
				r.check.check(st.Budget.Enforced, "statsz budget not enforced under a budget plan")
				r.check.check(st.TotalCharged == sum.ChargedQueries,
					"statsz total_charged %d, want %d accepted charges", st.TotalCharged, sum.ChargedQueries)
				r.check.check(st.Clients == b.Identities && st.Budget.TrackedClients == b.Identities,
					"statsz tracks %d/%d clients, want %d distinct identities",
					st.Clients, st.Budget.TrackedClients, b.Identities)
				accepted := (sum.Ops.Query - rejQuery) + (sum.Ops.Reconstruct - rejRecon)
				r.check.check(int64(st.Budget.Charges) == accepted,
					"statsz budget charges %d, want %d accepted batches", st.Budget.Charges, accepted)
				r.check.check(int64(st.Budget.RejectedClientQuota) == b.RejectedClientQuota,
					"statsz rejected_client_quota %d, mirrors tallied %d", st.Budget.RejectedClientQuota, b.RejectedClientQuota)
				r.check.check(int64(st.Budget.RejectedDegraded) == b.RejectedDegraded,
					"statsz rejected_degraded %d, mirrors tallied %d", st.Budget.RejectedDegraded, b.RejectedDegraded)
				r.check.check(st.Budget.RejectedPubQuota == 0,
					"statsz rejected_publication_quota %d with the publication quota disabled", st.Budget.RejectedPubQuota)
				occ := float64(b.MaxIdentityCharged) / float64(r.quota)
				r.check.check(math.Abs(st.Budget.Occupancy-occ) < 1e-12,
					"statsz budget occupancy %g, want %g", st.Budget.Occupancy, occ)
			}
		}
	}

	if r.sc.DeterministicAnswers() {
		sum.AnswersDigest = fmt.Sprintf("%016x", digest)
	}
	sum.Invariants = InvariantSummary{
		Checks:     r.check.checks.Load(),
		Violations: r.check.violations.Load(),
		Failures:   r.check.sampleFailures(),
	}

	timing := Timing{
		WallMS:   float64(wall.Microseconds()) / 1000,
		Requests: sum.Ops.Query + sum.Ops.Insert + sum.Ops.Refresh + sum.Ops.Reconstruct + sum.Ops.Audit,
		Ops:      opTimings(lats),
		Fleet:    fleetTiming,
	}
	if s := wall.Seconds(); s > 0 {
		timing.RequestsPerSec = float64(timing.Requests) / s
		timing.QueriesPerSec = float64(measuredQueries) / s
	}
	return &Result{Summary: sum, Timing: timing}, nil
}

// finishBudget runs the end-of-run budget invariants: per-identity ledger
// agreement (which proves rejected ops were never charged), the hard quota
// ceiling, and the never-undercount sketch pin — every identity's exact
// charge total replayed through a deliberately tiny shadow manager, whose
// count-min estimate must dominate the exact count. It returns the
// deterministic budget summary block.
func (r *runner) finishBudget(results []clientResult) *BudgetSummary {
	bs := &BudgetSummary{
		Quota:        r.quota,
		SoftQuota:    r.softQuota,
		IdentityPool: r.sc.Budget.IdentityPool,
		ZipfS:        r.sc.Budget.ZipfS,
	}
	idents := make(map[string]int64)
	for i := range results {
		res := &results[i]
		for id, charged := range res.idents {
			idents[id] = charged // pools are per-worker disjoint
		}
		bs.AcceptedBatches += (res.ops.Query - res.rejQuery) + (res.ops.Reconstruct - res.rejRecon)
		bs.RejectedClientQuota += res.rejClient
		bs.RejectedDegraded += res.rejDegraded
	}
	bs.Identities = len(idents)
	ids := make([]string, 0, len(idents))
	for id := range idents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		charged := idents[id]
		if charged > bs.MaxIdentityCharged {
			bs.MaxIdentityCharged = charged
		}
		got := r.exposure(id)
		r.check.check(got == charged,
			"identity %s final exposure: server ledger %d, accepted charges %d — rejected ops must never charge",
			id, got, charged)
		r.check.check(charged <= r.quota,
			"identity %s charged %d past quota %d", id, charged, r.quota)
	}

	// Shadow sketch replay: 4 exact slots and a 64-wide sketch force most
	// identities through count-min and its promotion/eviction machinery;
	// estimates must never undercount the exact totals.
	shadow := budget.New(budget.Config{
		Quota:       -1,
		MaxTracked:  4,
		SketchWidth: 64,
		SketchDepth: 2,
		PromoteAt:   r.quota / 2,
		Clock:       func() time.Time { return simEpoch },
	})
	for _, id := range ids {
		shadow.Charge(id, "", idents[id], budget.ClassQuery)
	}
	for _, id := range ids {
		est, _ := shadow.Estimate(id)
		r.check.check(est >= idents[id],
			"shadow sketch estimate %d under exact count %d for %s — count-min must never undercount",
			est, idents[id], id)
	}
	return bs
}

// --- HTTP plumbing ---

// post is the one HTTP POST: it sends the operation's idempotency key
// (the router answers a retried key from its replay cache; one server
// ignores the header) and, for a named op, records the request's wall
// latency under it. It returns the status, the Retry-After header and the
// raw body — everything the operations and the budget rejection path
// assert on.
func (r *runner) post(op string, res *clientResult, path, ctype, idem string, payload []byte) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, r.base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", ctype)
	if idem != "" {
		req.Header.Set("X-Idempotency-Key", idem)
	}
	start := time.Now()
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if op != "" {
		res.lats[op] = append(res.lats[op], time.Since(start))
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), body, err
}

// postJSON posts a JSON body through post and decodes the response into
// out.
func (r *runner) postJSON(op string, res *clientResult, path, idem string, in, out any) (int, error) {
	payload, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	code, _, body, err := r.post(op, res, path, "application/json", idem, payload)
	if err != nil {
		return code, err
	}
	return code, json.Unmarshal(body, out)
}

func (r *runner) getJSON(path string, out any) (int, error) {
	resp, err := r.hc.Get(r.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(body, out)
}
