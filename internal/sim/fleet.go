package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reconpriv/reconpriv/internal/fleet"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/stats"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// FleetPlan runs a scenario against a replicated fleet instead of a single
// server, with deterministic fault injection. Chaos points are fractions of
// the total operation count — not absolute ops and not wall time — so the
// same scenario scales from tier-1 test runs to full benchmarks without the
// kill landing before the first request or after the last.
type FleetPlan struct {
	// Replicas and ReplicationFactor shape the fleet (defaults 3 and 2).
	Replicas          int `json:"replicas"`
	ReplicationFactor int `json:"replication_factor"`
	// Publications is how many publications to place (default 1); each gets
	// the scenario's publish request with a distinct seed, so placement
	// spreads them across replicas.
	Publications int `json:"publications"`
	// KillAtFrac kills the first holder of publication 0 once that fraction
	// of all operations has been issued (0 disables). RestartAtFrac restarts
	// it later the same way; the restart rebuilds every held publication
	// from its request and replays missed generations.
	KillAtFrac    float64 `json:"kill_at_frac"`
	RestartAtFrac float64 `json:"restart_at_frac"`
	// SpikeEvery injects one latency spike of Spike into a rotating replica
	// every that-many operations (0 disables). With Spike above Timeout the
	// spiked attempt times out and the router fails over.
	SpikeEvery int           `json:"spike_every"`
	Spike      time.Duration `json:"-"`
	// Timeout is the router's per-attempt deadline (default 1s).
	Timeout time.Duration `json:"-"`
	// CrossProcess runs each replica as a spawned child process of this
	// binary, reached over real sockets — kills become real process exits
	// and restarts respawn and replay. The process embedding the simulator
	// must call fleet.ChildServeMain first thing in main (rpsim and this
	// package's test binary do).
	CrossProcess bool `json:"cross_process,omitempty"`
	// CheckpointLog is the fleet's mutation-log fold threshold (0 keeps the
	// fleet default; negative disables checkpointing). Ingest-style fleet
	// scenarios set it low so logs fold repeatedly mid-run and the
	// restarted replica restores snapshot + tail rather than full history.
	CheckpointLog int `json:"checkpoint_log,omitempty"`
}

// withDefaults resolves zero fields.
func (p FleetPlan) withDefaults() FleetPlan {
	if p.Replicas <= 0 {
		p.Replicas = 3
	}
	if p.ReplicationFactor <= 0 {
		p.ReplicationFactor = 2
	}
	if p.Publications <= 0 {
		p.Publications = 1
	}
	if p.Timeout <= 0 {
		p.Timeout = time.Second
	}
	if p.Spike <= 0 {
		p.Spike = 1300 * time.Millisecond
	}
	return p
}

// FleetSummary is the deterministic fleet half of a run summary: topology
// and chaos counts are schedule-independent, and verify mismatches are
// asserted zero by an invariant, so all of it is safe to byte-compare.
type FleetSummary struct {
	Replicas          int `json:"replicas"`
	ReplicationFactor int `json:"replication_factor"`
	// Transport is how the fleet reached its replicas: "in-process" or
	// "spawned" (cross-process child processes).
	Transport        string `json:"transport"`
	Publications     int    `json:"publications"`
	Kills            int64  `json:"kills"`
	Restarts         int64  `json:"restarts"`
	VerifyMismatches uint64 `json:"verify_mismatches"`
}

// FleetTiming is the nondeterministic fleet half: how often the router
// actually retried, ejected, probed, shed, and verified depends on request
// interleaving, so it reports next to the summary, never inside it.
type FleetTiming struct {
	Requests    uint64 `json:"requests"`
	Retries     uint64 `json:"retries"`
	Failovers   uint64 `json:"failovers"`
	Ejections   uint64 `json:"ejections"`
	Probes      uint64 `json:"probes"`
	Reinstated  uint64 `json:"reinstated"`
	Shed        uint64 `json:"shed"`
	Unavailable uint64 `json:"unavailable"`
	Verified    uint64 `json:"verified"`
	// Checkpoints counts mutation logs folded into snapshots. The fold
	// count depends on which holders were alive at each threshold crossing,
	// so it reports here, not in the summary.
	Checkpoints uint64 `json:"checkpoints"`
}

// fleetRunner holds the state shared by every client of one fleet run.
type fleetRunner struct {
	opts    Options
	sc      Scenario
	plan    FleetPlan
	clients int
	steps   int

	f    *fleet.Fleet
	ids  []string             // placed publication ids, in placement order
	pubs []*serve.Publication // schema handles, parallel to ids
	m    int                  // SA domain size (shared schema)
	base string
	hc   *http.Client
	// fold reports whether answers are folded into the summary digest:
	// only when the workload never mutates state (answers are then
	// interleaving-independent).
	fold bool

	check *checker

	// ops is the global operation counter the chaos schedule keys off;
	// killAt/restartAt are the thresholds (0 = disabled), victim the replica
	// they target. Exactly one client observes each threshold value.
	ops       atomic.Int64
	killAt    int64
	restartAt int64
	victim    int
	kills     atomic.Int64
	restarts  atomic.Int64
}

// runFleet executes one scenario against a replicated fleet.
func runFleet(opts Options, sc Scenario) (*Result, error) {
	r := &fleetRunner{
		opts:    opts,
		sc:      sc,
		plan:    sc.Fleet.withDefaults(),
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

	r.fold = sc.DeterministicAnswers()

	cfg := opts.Config
	if cfg.Clock == nil {
		cfg.Clock = func() time.Time { return simEpoch }
	}
	// Like the single-server runner: fleet load generators run in the
	// trusted budget tier so admission never interferes with the chaos
	// schedule under scrutiny.
	cfg.BudgetTrusted = append([]string(nil), trustedClientIDs(r.clients)...)
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
	for i := 0; i < r.plan.Publications; i++ {
		req := sc.Publish
		req.Seed = sc.Publish.Seed + int64(i)
		id, err := r.f.Publish(req)
		if err != nil {
			return nil, fmt.Errorf("sim: fleet publish %d: %w", i, err)
		}
		pub, err := r.f.Publication(id)
		if err != nil {
			return nil, fmt.Errorf("sim: fleet publication %d: %w", i, err)
		}
		r.ids = append(r.ids, id)
		r.pubs = append(r.pubs, pub)
	}
	r.m = r.pubs[0].Marg.SADomain()

	// Chaos schedule: thresholds on the shared op counter, victim the
	// top-ranked holder of publication 0 so the kill always hits a replica
	// that matters.
	total := int64(r.clients * r.steps)
	if r.plan.KillAtFrac > 0 {
		r.killAt = max(1, int64(r.plan.KillAtFrac*float64(total)))
	}
	if r.plan.RestartAtFrac > 0 {
		r.restartAt = max(r.killAt+1, int64(r.plan.RestartAtFrac*float64(total)))
	}
	r.victim = r.f.Holders(r.ids[0])[0]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	hs := &http.Server{Handler: r.f.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	r.base = "http://" + ln.Addr().String()
	r.hc = &http.Client{
		Timeout:   opts.clientTimeout(),
		Transport: &http.Transport{MaxIdleConnsPerHost: r.clients + 2},
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

// chaos fires any due fault for global operation n. The counter hands each
// value to exactly one client, so each threshold triggers exactly once and
// the kill/restart counts are deterministic even though which client pulls
// the trigger is not.
func (r *fleetRunner) chaos(n int64) {
	if r.killAt > 0 && n == r.killAt {
		r.f.KillReplica(r.victim)
		r.kills.Add(1)
	}
	if r.restartAt > 0 && n == r.restartAt {
		r.check.check(r.f.RestartReplica(r.victim) == nil,
			"restarting replica %d failed", r.victim)
		r.restarts.Add(1)
	}
	if r.plan.SpikeEvery > 0 && n%int64(r.plan.SpikeEvery) == 0 {
		target := int((n / int64(r.plan.SpikeEvery)) % int64(r.plan.Replicas))
		r.f.InjectLatency(target, r.plan.Spike, 1)
	}
}

// runClient executes one client's schedule against the router.
func (r *fleetRunner) runClient(idx int, res *clientResult) {
	rng := stats.NewRand(clientSeed(r.opts.Seed, idx))
	id := fmt.Sprintf("c%03d", idx)
	res.lats = make(map[string][]time.Duration)
	digest := stats.NewDigest()
	for step := 0; step < r.steps; step++ {
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
			r.doQuery(rng, id, idem, res, digest)
		case opInsert:
			res.ops.Insert++
			r.doInsert(rng, idem, res)
		case opRefresh:
			res.ops.Refresh++
			r.doRefresh(rng, idem, res)
		case opReconstruct:
			res.ops.Reconstruct++
			r.doReconstruct(rng, id, idem, res)
		case opAudit:
			res.ops.Audit++
			r.doAudit(rng, idem, res)
		}
	}
	res.digest = digest.Sum64()
}

// pickPub draws the target publication for one operation.
func (r *fleetRunner) pickPub(rng *stats.Rand) (string, *serve.Publication) {
	i := rng.Intn(len(r.ids))
	return r.ids[i], r.pubs[i]
}

// randomCondsOn mirrors runner.randomConds against an explicit publication.
func (r *fleetRunner) randomCondsOn(rng *stats.Rand, pub *serve.Publication) []serve.CondJSON {
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

// doQuery issues one query batch through the router and validates shape,
// answers, and the router's cumulative exposure ledger.
func (r *fleetRunner) doQuery(rng *stats.Rand, id, idem string, res *clientResult, digest *stats.Digest) {
	pid, pub := r.pickPub(rng)
	sa := pub.Orig.SAAttr()
	qs := make([]serve.QueryJSON, r.sc.QueriesPerBatch)
	for i := range qs {
		qs[i] = serve.QueryJSON{Conds: r.randomCondsOn(rng, pub), SA: sa.Values[rng.Intn(r.m)]}
	}
	var resp queryWire
	var code int
	var err error
	if res.ops.Query%2 == 0 && !r.opts.forceJSON {
		// Even batches ride the binary framing through the router — head
		// peek, pass-through, and ledger patch all on the routed path.
		frame, ferr := encodeQueryFrame(pub.Orig, pid, id, qs)
		if !r.check.check(ferr == nil, "encoding binary query batch: %v", ferr) {
			return
		}
		code, err = r.timedPostBinary("query", res, "/query", idem, frame, &resp)
	} else {
		code, err = r.timedPost("query", res, "/query", idem,
			map[string]any{"id": pid, "client": id, "queries": qs, "wait": true}, &resp)
	}
	if !r.check.check(err == nil && code == http.StatusOK, "query returned %d (%v)", code, err) {
		return
	}
	res.queries += int64(len(qs))
	res.charged += int64(len(qs))
	r.check.check(len(resp.Answers) == len(qs), "query batch of %d got %d answers", len(qs), len(resp.Answers))
	r.check.check(resp.ClientQueries == res.charged,
		"client %s exposure: router says %d, local ledger %d — lost or double-charged across failover",
		id, resp.ClientQueries, res.charged)
	for i := range resp.Answers {
		a := &resp.Answers[i]
		if !r.check.check(a.Error == "", "query %d failed: %s", i, a.Error) {
			continue
		}
		if r.fold {
			digest.Word(uint64(a.Count))
			digest.Word(math.Float64bits(a.Estimate))
		}
	}
}

// doInsert streams one record batch through the router: the batch fans out
// to every live holder and lands in the mutation log (folding into a
// checkpoint when the log fills), so the exactly-once check here is the
// batch arriving intact — total-record conservation across the whole run is
// what ReplicaAgreement proves at the end.
func (r *fleetRunner) doInsert(rng *stats.Rand, idem string, res *clientResult) {
	pid, pub := r.pickPub(rng)
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
	code, err := r.timedPost("insert", res, "/insert", idem,
		map[string]any{"id": pid, "records": recs, "wait": true}, &resp)
	if !r.check.check(err == nil && code == http.StatusOK, "insert returned %d (%v)", code, err) {
		return
	}
	r.check.check(resp.Inserted == len(recs),
		"routed insert applied %d of %d records — a batch was partially lost", resp.Inserted, len(recs))
	r.check.check(resp.Trials+resp.Absorbed == resp.Inserted,
		"insert of %d split into %d trials + %d absorbed", resp.Inserted, resp.Trials, resp.Absorbed)
}

// doRefresh advances a publication's generation through the router; the
// router fans it out to every live holder and logs it for restart replay.
func (r *fleetRunner) doRefresh(rng *stats.Rand, idem string, res *clientResult) {
	pid, _ := r.pickPub(rng)
	var view struct {
		Generation int `json:"generation"`
	}
	code, err := r.timedPost("refresh", res, "/refresh", idem,
		map[string]any{"id": pid}, &view)
	if !r.check.check(err == nil && code == http.StatusOK, "refresh returned %d (%v)", code, err) {
		return
	}
	r.check.check(view.Generation >= 1, "refreshed publication at generation %d", view.Generation)
}

// doReconstruct issues one reconstruction batch through the router.
func (r *fleetRunner) doReconstruct(rng *stats.Rand, id, idem string, res *clientResult) {
	pid, pub := r.pickPub(rng)
	subsets := make([][]serve.CondJSON, r.sc.SubsetsPerBatch)
	for i := range subsets {
		subsets[i] = r.randomCondsOn(rng, pub)
	}
	var resp reconstructWire
	code, err := r.timedPost("reconstruct", res, "/reconstruct", idem,
		map[string]any{"id": pid, "client": id, "subsets": subsets, "wait": true}, &resp)
	if !r.check.check(err == nil && code == http.StatusOK, "reconstruct returned %d (%v)", code, err) {
		return
	}
	res.subsets += int64(len(subsets))
	res.charged += int64(len(subsets)) * int64(r.m)
	r.check.check(len(resp.Results) == len(subsets),
		"reconstruct batch of %d got %d results", len(subsets), len(resp.Results))
	r.check.check(resp.ClientQueries == res.charged,
		"client %s exposure after reconstruct: router says %d, local ledger %d — lost or double-charged across failover",
		id, resp.ClientQueries, res.charged)
	for i := range resp.Results {
		r.check.check(resp.Results[i].Error == "", "reconstruction %d failed: %s", i, resp.Results[i].Error)
	}
}

// doAudit runs one audit through the router and validates the verdicts.
func (r *fleetRunner) doAudit(rng *stats.Rand, idem string, res *clientResult) {
	pid, _ := r.pickPub(rng)
	seed := auditSeeds[rng.Intn(len(auditSeeds))]
	var resp auditWire
	code, err := r.timedPost("audit", res, "/audit", idem,
		map[string]any{"id": pid, "trials": r.sc.AuditTrials, "seed": seed, "top": 5, "wait": true}, &resp)
	if !r.check.check(err == nil && code == http.StatusOK, "audit returned %d (%v)", code, err) {
		return
	}
	r.check.check(resp.GroupsAudited > 0, "audit swept no groups")
	r.check.check(resp.BoundViolations == 0,
		"audit found %d groups beyond their Chernoff bounds", resp.BoundViolations)
}

// finish runs the fleet-wide conservation checks and assembles the result.
func (r *fleetRunner) finish(results []clientResult, wall time.Duration) (*Result, error) {
	sum := Summary{
		Scenario:       r.sc.Name,
		Seed:           r.opts.Seed,
		Clients:        r.clients,
		StepsPerClient: r.steps,
	}
	var digest uint64
	var charged int64
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
		sum.ChargedQueries += res.charged
		charged += res.charged
		digest ^= res.digest
		for op, ds := range res.lats {
			lats[op] = append(lats[op], ds...)
		}
	}

	// Exactly-once exposure, per client and in aggregate: the router's
	// authoritative ledger must equal what each client observed being
	// charged, and the fleet total must equal their sum — no answered
	// operation lost, none double-charged across retries and failovers.
	for i := range results {
		id := fmt.Sprintf("c%03d", i)
		got := r.f.ClientExposure(id)
		r.check.check(got == results[i].charged,
			"client %s final exposure: fleet ledger %d, charges observed %d", id, got, results[i].charged)
	}
	r.check.check(r.f.TotalExposure() == charged,
		"fleet aggregate exposure %d, sum of per-client charges %d", r.f.TotalExposure(), charged)

	// Replica agreement: every publication with a live holder must serve
	// bit-identical state on all of them — including a restarted victim,
	// which rebuilt from the request and replayed missed generations.
	for _, id := range r.ids {
		err := r.f.ReplicaAgreement(id)
		r.check.check(err == nil, "replica agreement on %s: %v", id, err)
	}

	st := r.f.Stats()
	r.check.check(st.VerifyMismatches == 0,
		"%d sampled answers disagreed across replicas", st.VerifyMismatches)
	r.check.check(st.TotalCharged == charged,
		"router statsz charged %d, clients observed %d", st.TotalCharged, charged)
	if r.killAt > 0 {
		r.check.check(r.kills.Load() == 1, "kill fired %d times, want 1", r.kills.Load())
	}
	if r.restartAt > 0 {
		r.check.check(r.restarts.Load() == 1, "restart fired %d times, want 1", r.restarts.Load())
	}

	// Checkpoint bound: with folding enabled, no publication's mutation log
	// may end the run at or above the threshold — every crossing must have
	// folded into a snapshot (the run restarts its only killed replica, so
	// a live checkpoint source always exists).
	if r.plan.CheckpointLog > 0 {
		for _, id := range r.ids {
			l := r.f.MutationLogLen(id)
			r.check.check(l < r.plan.CheckpointLog,
				"publication %s mutation log at %d, threshold %d: checkpointing never folded it", id, l, r.plan.CheckpointLog)
		}
	}

	if r.fold {
		sum.AnswersDigest = fmt.Sprintf("%016x", digest)
	}
	sum.Fleet = &FleetSummary{
		Replicas:          r.plan.Replicas,
		ReplicationFactor: r.plan.ReplicationFactor,
		Transport:         r.f.Transport(),
		Publications:      len(r.ids),
		Kills:             r.kills.Load(),
		Restarts:          r.restarts.Load(),
		VerifyMismatches:  st.VerifyMismatches,
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
		Fleet: &FleetTiming{
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
		},
	}
	if s := wall.Seconds(); s > 0 {
		timing.RequestsPerSec = float64(timing.Requests) / s
		timing.QueriesPerSec = float64(sum.Queries) / s
	}
	return &Result{Summary: sum, Timing: timing}, nil
}

// timedPost posts a JSON body with the operation's idempotency key and
// records its wall latency under the op name.
func (r *fleetRunner) timedPost(op string, res *clientResult, path, idem string, body, out any) (int, error) {
	start := time.Now()
	code, err := r.postJSON(path, idem, body, out)
	res.lats[op] = append(res.lats[op], time.Since(start))
	return code, err
}

// timedPostBinary posts a wire frame through the router with the
// operation's idempotency key.
func (r *fleetRunner) timedPostBinary(op string, res *clientResult, path, idem string, frame []byte, out *queryWire) (int, error) {
	start := time.Now()
	code, err := r.postBinary(path, idem, frame, out)
	res.lats[op] = append(res.lats[op], time.Since(start))
	return code, err
}

func (r *fleetRunner) postBinary(path, idem string, frame []byte, out *queryWire) (int, error) {
	req, err := http.NewRequest(http.MethodPost, r.base+path, bytes.NewReader(frame))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	if idem != "" {
		req.Header.Set("X-Idempotency-Key", idem)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, decodeQueryFrame(body, out)
}

func (r *fleetRunner) postJSON(path, idem string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, r.base+path, bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idem != "" {
		req.Header.Set("X-Idempotency-Key", idem)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeBody(resp.Body, out)
}
