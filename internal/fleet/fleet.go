package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/serve"
)

// Config tunes the fleet; the zero value is fully usable.
type Config struct {
	// Replicas is the replica count (default 3).
	Replicas int
	// ReplicationFactor is how many replicas hold each publication
	// (default 2, clamped to Replicas).
	ReplicationFactor int
	// EjectAfter is the count of consecutive failed attempts — transport
	// failures, or successes without a readable charge — that ejects a
	// replica from rotation (default 3).
	EjectAfter int
	// ProbeAfter is the ejection cooldown, measured in requests routed
	// fleet-wide (not wall time, so tests and the simulator stay
	// deterministic): once that many requests have passed, the next
	// request to need the replica probes it (default 16).
	ProbeAfter uint64
	// MaxInFlight bounds concurrent requests per replica; beyond it the
	// router tries the next holder and, with every holder saturated,
	// sheds the request with a typed 429 (default 64).
	MaxInFlight int64
	// MaxAttempts is the per-logical-request attempt budget across all
	// holders (default 5).
	MaxAttempts int
	// Timeout is the per-attempt deadline (default 2s).
	Timeout time.Duration
	// BuildTimeout is the deadline for control-plane operations against
	// one replica — publish, refresh, snapshot, restore, and restart
	// replay — which run builds and must outlast the query timeout
	// (default 2m).
	BuildTimeout time.Duration
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts (defaults 2ms and 50ms); actual sleeps are jittered
	// deterministically from the request key.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// VerifyEvery samples 1-in-N successful /query and /reconstruct
	// answers for byte comparison against a second holder (default 16;
	// negative disables). Deterministic builds make holders bit-identical,
	// so any mismatch is a real fault.
	VerifyEvery int
	// CheckpointLog bounds each publication's mutation log: when a
	// mutation pushes the log to this many entries, the router snapshots
	// the publication from a live up-to-date holder (POST /snapshot),
	// stores the checkpoint, and truncates the log. Restarts then replay
	// checkpoint + tail instead of the full history. Default 64; negative
	// disables checkpointing (the log grows for the fleet's lifetime).
	CheckpointLog int
	// Serve is each replica's configuration.
	Serve serve.Config
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 2
	}
	if c.ReplicationFactor > c.Replicas {
		c.ReplicationFactor = c.Replicas
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeAfter == 0 {
		c.ProbeAfter = 16
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.BuildTimeout <= 0 {
		c.BuildTimeout = 2 * time.Minute
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 50 * time.Millisecond
	}
	if c.VerifyEvery == 0 {
		c.VerifyEvery = 16
	}
	if c.CheckpointLog == 0 {
		c.CheckpointLog = 64
	}
	return c
}

// fleetMode is how this fleet reaches its replicas.
type fleetMode int

const (
	// modeMem: in-process replicas behind memTransport (New).
	modeMem fleetMode = iota
	// modeProcs: spawned child processes behind httpTransport (NewProcs).
	modeProcs
	// modePeers: attached external servers behind httpTransport (NewPeers).
	modePeers
)

func (m fleetMode) String() string {
	switch m {
	case modeProcs:
		return "spawned"
	case modePeers:
		return "attached"
	default:
		return "in-process"
	}
}

// mutation is one entry of a publication's ordered mutation log: either a
// generation bump or an insert batch (the request body verbatim, so JSON
// and binary firehose batches replay through the same handler path that
// applied them live).
type mutation struct {
	refresh bool
	body    []byte
	binary  bool
}

// pub is the fleet's record of one placed publication: the request to
// rebuild it from (deterministic builds make the request the whole state),
// the latest checkpoint, and the ordered mutation log since that checkpoint
// — refreshes and insert batches, exactly as the live holders applied them.
// A restart replays checkpoint + tail; without a checkpoint it replays the
// request + full log. gen, snap, log, and stale are guarded by mu, which is
// also what serializes mutations into one total order per publication.
type pub struct {
	req     serve.PublishRequest
	holders []int
	mu      sync.Mutex
	gen     int
	// snap is the latest checkpoint — the raw /snapshot response body,
	// POSTed verbatim to /restore on restart — and snapped is the number of
	// checkpoints folded so far.
	snap    []byte
	snapped int
	log     []mutation
	// stale marks live holders that missed a logged mutation (transport
	// failure during fan-out): their state lags the log, so they are never
	// used as a checkpoint source until a restart replays them back into
	// agreement.
	stale map[int]bool
	// mutations rises by one, under mu, when a mutation starts fanning out
	// to the holders and by one when it ends: it is odd while holders may
	// disagree. Verification reads it without the lock.
	mutations atomic.Uint64
}

// markStale records that holder h missed a logged mutation.
func (p *pub) markStale(h int) {
	if p.stale == nil {
		p.stale = make(map[int]bool)
	}
	p.stale[h] = true
}

// Fleet is a router plus its replicas. Create with New (in-process),
// NewProcs (spawned child processes), or NewPeers (attached addresses); all
// methods are safe for concurrent use.
type Fleet struct {
	cfg      Config
	mode     fleetMode
	replicas []*replica

	// hc is the shared connection-pooled client behind every HTTP
	// transport (nil in in-process mode until needed).
	hc *http.Client

	pubs struct {
		mu sync.RWMutex
		m  map[string]*pub
	}

	// budget is the authoritative exposure ledger — bounded, quota-enforcing,
	// charged exactly once per logical request. Replicas run with
	// enforcement disabled so the router's decisions are the only ones; a
	// budget 429 is issued here, before any replica is touched, and never
	// charges.
	budget *budget.Manager

	// idem is the bounded idempotency replay cache (see router.go).
	idem struct {
		mu    sync.Mutex
		m     map[string]*response
		order []string
	}

	// requests is the fleet-wide routed-request counter — also the clock
	// probe cooldowns are measured against.
	requests atomic.Uint64

	// Operational counters (wall-clock and interleaving dependent; the
	// simulator reports them as timing, never in the deterministic summary).
	retries          atomic.Uint64
	failovers        atomic.Uint64
	ejections        atomic.Uint64
	probes           atomic.Uint64
	reinstated       atomic.Uint64
	shed             atomic.Uint64
	budgetRejected   atomic.Uint64
	insertsRouted    atomic.Uint64
	unavailable      atomic.Uint64
	verified         atomic.Uint64
	verifyMismatches atomic.Uint64
	checkpoints      atomic.Uint64

	// settled counts routed /query and /reconstruct successes; every
	// VerifyEvery-th is verified.
	settled atomic.Uint64
}

// newFleet builds the replica-less shell shared by every constructor.
func newFleet(cfg Config, mode fleetMode) *Fleet {
	f := &Fleet{cfg: cfg.withDefaults(), mode: mode}
	f.budget = budget.New(f.cfg.Serve.Budget())
	f.pubs.m = make(map[string]*pub)
	f.idem.m = make(map[string]*response)
	return f
}

// New builds a fleet of cfg.Replicas in-process replicas — the zero-setup
// mode tests and single-binary deployments use.
func New(cfg Config) *Fleet {
	f := newFleet(cfg, modeMem)
	f.replicas = make([]*replica, f.cfg.Replicas)
	for i := range f.replicas {
		f.replicas[i] = newReplica(i, newMemTransport(f.replicaServeConfig()))
	}
	return f
}

// NewProcs builds a fleet of cfg.Replicas replicas, each a spawned child
// process of this binary reached over real sockets (see ChildServeMain).
// KillReplica kills the child process; RestartReplica spawns a fresh one
// and replays its state. Call Close to reap the children.
func NewProcs(cfg Config) (*Fleet, error) {
	f := newFleet(cfg, modeProcs)
	f.hc = newFleetClient(f.cfg.Replicas)
	f.replicas = make([]*replica, f.cfg.Replicas)
	for i := range f.replicas {
		proc, err := spawnChild(f.replicaServeConfig(), f.hc)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
		rep := newReplica(i, newHTTPTransport(proc.addr, f.hc))
		rep.proc = proc
		f.replicas[i] = rep
	}
	return f, nil
}

// NewPeers builds a fleet attached to already-running replica servers (one
// base URL per replica, e.g. "http://10.0.0.5:8080"); len(peers) overrides
// cfg.Replicas. The fleet does not manage peer lifecycles: KillReplica only
// detaches a peer, and RestartReplica assumes the operator restarted the
// peer process empty before reattaching (restore targets a fresh replica).
func NewPeers(cfg Config, peers []string) (*Fleet, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("fleet: no peer addresses")
	}
	cfg.Replicas = len(peers)
	f := newFleet(cfg, modePeers)
	f.hc = newFleetClient(f.cfg.Replicas)
	f.replicas = make([]*replica, f.cfg.Replicas)
	for i, base := range peers {
		base = strings.TrimSuffix(base, "/")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		if err := waitHealthy(base, f.hc, 10*time.Second); err != nil {
			return nil, fmt.Errorf("fleet: peer %d: %w", i, err)
		}
		f.replicas[i] = newReplica(i, newHTTPTransport(base, f.hc))
	}
	return f, nil
}

// Close releases the fleet's resources: spawned child processes are killed
// and reaped, pooled connections closed. Safe to call on any mode.
func (f *Fleet) Close() {
	for _, rep := range f.replicas {
		if rep == nil {
			continue
		}
		rep.mu.Lock()
		if rep.proc != nil {
			rep.proc.kill()
			rep.proc = nil
		}
		if rep.tr != nil {
			rep.tr.close()
		}
		rep.mu.Unlock()
	}
	if f.hc != nil {
		f.hc.CloseIdleConnections()
	}
}

// replicaServeConfig is each replica's serve configuration: the fleet's,
// with budget enforcement disabled — the router's manager is authoritative,
// so a replica must never issue its own 429 for a request the router already
// admitted. The replica ledgers still count; settle overwrites their fields
// with the router's values.
func (f *Fleet) replicaServeConfig() serve.Config {
	cfg := f.cfg.Serve
	cfg.BudgetQuota = -1
	return cfg
}

// Config returns the resolved configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Transport names how this fleet reaches its replicas: "in-process",
// "spawned" (child processes), or "attached" (external peers).
func (f *Fleet) Transport() string { return f.mode.String() }

// roundTrip executes one control-plane exchange on a transport under the
// build deadline.
func (f *Fleet) roundTrip(tr transport, method, path string, hdr http.Header, body []byte) (*response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.BuildTimeout)
	defer cancel()
	return tr.do(ctx, method, path, hdr, body)
}

// control executes one control-plane exchange against a replica's current
// transport (alive-checked, fault injection bypassed).
func (f *Fleet) control(rep *replica, method, path string, hdr http.Header, body []byte) (*response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.BuildTimeout)
	defer cancel()
	return rep.control(ctx, method, path, hdr, body)
}

// controlErr folds a control exchange's transport error and HTTP status
// into one error (nil on 2xx).
func controlErr(resp *response, err error) error {
	if err != nil {
		return err
	}
	if resp.status >= 400 {
		return fmt.Errorf("status %d: %s", resp.status, strings.TrimSpace(string(resp.body)))
	}
	return nil
}

// Publish places a publication on its rendezvous holders and builds it on
// every live one (POST /publish with wait through each holder's transport),
// returning the publication id. Dead holders pick it up on restart.
// Publishing the same request twice is a cache hit on every holder, exactly
// as on a single server.
func (f *Fleet) Publish(req serve.PublishRequest) (string, error) {
	if err := req.Normalize(); err != nil {
		return "", err
	}
	id := serve.IDForKey(req.Key())
	holders := placement(id, f.cfg.Replicas, f.cfg.ReplicationFactor)

	f.pubs.mu.Lock()
	p, ok := f.pubs.m[id]
	if !ok {
		p = &pub{req: req, holders: holders}
		f.pubs.m[id] = p
	}
	f.pubs.mu.Unlock()

	body, err := publishBody(req)
	if err != nil {
		return "", err
	}
	for _, h := range p.holders {
		rep := f.replicas[h]
		if !rep.alive.Load() {
			continue
		}
		if err := controlErr(f.control(rep, http.MethodPost, "/publish", bodyHeader(false), body)); err != nil {
			return "", fmt.Errorf("fleet: replica %d: %w", h, err)
		}
	}
	return id, nil
}

// publishBody encodes a publish request with wait set, so the control
// plane's POST /publish blocks until the build settles — the transport
// analogue of serve.Publish(req, true).
func publishBody(req serve.PublishRequest) ([]byte, error) {
	req.Wait = true
	return json.Marshal(req)
}

// Refresh advances a publication's generation on every live holder (POST
// /refresh with wait through each holder's transport). A holder that fails
// at the transport level misses the refresh, is marked stale, and converges
// on restart via log replay; a holder that rejects it (deterministic
// validation) fails the whole refresh, which is then not logged. Dead
// holders replay the generation on restart, so holders always converge on
// one generation — the digest-agreement precondition.
func (f *Fleet) Refresh(id string) error {
	p := f.lookup(id)
	if p == nil {
		return fmt.Errorf("fleet: no publication %q", id)
	}
	body, err := json.Marshal(map[string]any{"id": id, "wait": true})
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mutations.Add(1)
	defer p.mutations.Add(1)
	applied := false
	var missed []int
	for _, h := range p.holders {
		rep := f.replicas[h]
		if !rep.alive.Load() {
			continue
		}
		resp, err := f.control(rep, http.MethodPost, "/refresh", bodyHeader(false), body)
		if err != nil {
			missed = append(missed, h)
			continue
		}
		if resp.status >= 400 {
			return fmt.Errorf("fleet: replica %d: refresh %q: status %d: %s",
				h, id, resp.status, strings.TrimSpace(string(resp.body)))
		}
		applied = true
	}
	if !applied {
		return fmt.Errorf("fleet: no live holder of %q applied the refresh", id)
	}
	for _, h := range missed {
		p.markStale(h)
	}
	p.gen++
	p.log = append(p.log, mutation{refresh: true})
	f.maybeCheckpoint(id, p)
	return nil
}

// maybeCheckpoint folds a publication's mutation log into a stored
// snapshot once it reaches the configured length: POST /snapshot to the
// first live, non-stale holder captures request + generation + streaming
// state under the same p.mu that serializes mutations (so the checkpoint
// can never straddle one), and on success the log is truncated. Failure
// leaves the log intact — the next mutation retries, and restart replay
// falls back to the full history. The caller holds p.mu.
func (f *Fleet) maybeCheckpoint(id string, p *pub) {
	if f.cfg.CheckpointLog <= 0 || len(p.log) < f.cfg.CheckpointLog {
		return
	}
	body, err := json.Marshal(map[string]string{"id": id})
	if err != nil {
		return
	}
	for _, h := range p.holders {
		rep := f.replicas[h]
		if !rep.alive.Load() || p.stale[h] {
			continue
		}
		resp, err := f.control(rep, http.MethodPost, "/snapshot", bodyHeader(false), body)
		if err != nil || resp.status != http.StatusOK {
			continue
		}
		p.snap = resp.body
		p.snapped++
		p.log = nil
		f.checkpoints.Add(1)
		return
	}
}

// MutationLogLen reports the current mutation-log length of a publication
// (entries since the last checkpoint), or -1 for an unknown id. With
// checkpointing enabled this stays below Config.CheckpointLog except
// transiently while every checkpoint source is dead or stale.
func (f *Fleet) MutationLogLen(id string) int {
	p := f.lookup(id)
	if p == nil {
		return -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log)
}

// lookup returns the fleet's record of a publication, or nil.
func (f *Fleet) lookup(id string) *pub {
	f.pubs.mu.RLock()
	defer f.pubs.mu.RUnlock()
	return f.pubs.m[id]
}

// Holders returns the replica indices placed for a publication id
// (placement is pure, so this works for ids not yet published).
func (f *Fleet) Holders(id string) []int {
	return placement(id, f.cfg.Replicas, f.cfg.ReplicationFactor)
}

// KillReplica takes a replica down hard: for spawned children the process
// is killed — a real exit, sockets and all — and for every mode requests to
// it fail at the transport level until RestartReplica. The router discovers
// the death through consecutive failures and ejects it — kill deliberately
// does not update health state, so the detection path is always exercised.
func (f *Fleet) KillReplica(i int) {
	rep := f.replicas[i]
	rep.alive.Store(false)
	rep.mu.Lock()
	if rep.proc != nil {
		rep.proc.kill()
		rep.proc = nil
	}
	rep.mu.Unlock()
}

// RestartReplica brings a killed replica back — a fresh in-process server,
// a freshly spawned child process, or a reattached peer, by mode — and
// deterministically reconstructs its state before it serves: every placed
// publication is restored from its latest checkpoint (POST /restore) and
// rolled forward through the mutation-log tail, or rebuilt from its request
// and the full log when no checkpoint exists. Replay runs over the new
// transport before it is swapped in, so the replica is never visible
// half-built. Health state is left alone — the replica rejoins rotation
// through the probe path, not by fiat.
func (f *Fleet) RestartReplica(i int) error {
	rep := f.replicas[i]

	var tr transport
	var proc *childProc
	switch f.mode {
	case modeProcs:
		p, err := spawnChild(f.replicaServeConfig(), f.hc)
		if err != nil {
			return fmt.Errorf("fleet: restart replica %d: %w", i, err)
		}
		tr, proc = newHTTPTransport(p.addr, f.hc), p
	case modePeers:
		old, ok := rep.transport().(*httpTransport)
		if !ok {
			return fmt.Errorf("fleet: restart replica %d: no peer address", i)
		}
		if err := waitHealthy(old.base, f.hc, 10*time.Second); err != nil {
			return fmt.Errorf("fleet: restart replica %d: %w", i, err)
		}
		tr = newHTTPTransport(old.base, f.hc)
	default:
		tr = newMemTransport(f.replicaServeConfig())
	}

	// Replay and swap under every placed publication's mutation lock (and a
	// read lock on the pub table, so no new placement slips past the
	// snapshot). A mutation concurrent with the restart either completed
	// before the locks were taken — then it is in the log and replayed — or
	// blocks until the replica is alive and fans out to it normally. Without
	// the locks there is a window after a publication's replay and before
	// alive flips in which a mutation skips the replica and is never
	// repaired, leaving it permanently divergent. Mutation paths lock one
	// publication at a time, so taking them all here cannot deadlock.
	f.pubs.mu.RLock()
	defer f.pubs.mu.RUnlock()
	placed := make([]*pub, 0, len(f.pubs.m))
	for _, p := range f.pubs.m {
		for _, h := range p.holders {
			if h == i {
				placed = append(placed, p)
				break
			}
		}
	}
	// Deterministic rebuild order (map iteration is not).
	sort.Slice(placed, func(a, b int) bool {
		return serve.IDForKey(placed[a].req.Key()) < serve.IDForKey(placed[b].req.Key())
	})
	for _, p := range placed {
		p.mu.Lock()
		defer p.mu.Unlock()
	}

	for _, p := range placed {
		if err := f.replayOn(tr, p); err != nil {
			if proc != nil {
				proc.kill()
			}
			return fmt.Errorf("fleet: restart replica %d: %w", i, err)
		}
		delete(p.stale, i)
	}

	rep.mu.Lock()
	rep.tr = tr
	rep.proc = proc
	rep.mu.Unlock()
	rep.alive.Store(true)
	return nil
}

// replayOn reconstructs one publication on a fresh replica through its
// transport: restore the latest checkpoint (or the generation-0 build when
// none exists), then the mutation-log tail in order. Insert batches replay
// through the same /insert handler that applied them live — same
// validation, same publisher Add sequence, original encoding — so a
// replayed holder is digest-identical to one that never died. The caller
// holds p.mu.
func (f *Fleet) replayOn(tr transport, p *pub) error {
	id := serve.IDForKey(p.req.Key())
	if p.snap != nil {
		if err := controlErr(f.roundTrip(tr, http.MethodPost, "/restore", bodyHeader(false), p.snap)); err != nil {
			return fmt.Errorf("restoring checkpoint of %q: %w", id, err)
		}
	} else {
		body, err := publishBody(p.req)
		if err != nil {
			return err
		}
		if err := controlErr(f.roundTrip(tr, http.MethodPost, "/publish", bodyHeader(false), body)); err != nil {
			return fmt.Errorf("rebuilding %q: %w", id, err)
		}
	}
	refreshBody, err := json.Marshal(map[string]any{"id": id, "wait": true})
	if err != nil {
		return err
	}
	for i := range p.log {
		m := &p.log[i]
		if m.refresh {
			if err := controlErr(f.roundTrip(tr, http.MethodPost, "/refresh", bodyHeader(false), refreshBody)); err != nil {
				return fmt.Errorf("replaying refresh %d of %q: %w", i, id, err)
			}
			continue
		}
		if err := controlErr(f.roundTrip(tr, http.MethodPost, "/insert", bodyHeader(m.binary), m.body)); err != nil {
			return fmt.Errorf("replaying insert %d of %q: %w", i, id, err)
		}
	}
	return nil
}

// InjectLatency makes the next n requests to replica i stall for d before
// serving — the simulator's latency-spike fault.
func (f *Fleet) InjectLatency(i int, d time.Duration, n int) {
	rep := f.replicas[i]
	rep.faults.spike.Store(int64(d))
	rep.faults.spikeN.Add(int64(n))
}

// InjectFailures makes the next n requests to replica i fail at the
// transport level — a crash-mid-request fault.
func (f *Fleet) InjectFailures(i, n int) {
	f.replicas[i].faults.failN.Add(int64(n))
}

// Budget exposes the router's authoritative budget manager for tests and
// harnesses.
func (f *Fleet) Budget() *budget.Manager { return f.budget }

// ClientExposure returns one client's cumulative charged exposure — exact
// for exactly tracked clients, a count-min upper bound past the tracking cap.
func (f *Fleet) ClientExposure(client string) int64 {
	total, _ := f.budget.Estimate(client)
	return total
}

// TotalExposure returns the fleet-wide charged total. By construction it
// equals the sum of per-client ledgers; the simulator asserts exactly that
// against the charges its clients observed.
func (f *Fleet) TotalExposure() int64 { return f.budget.TotalCharged() }

// ReplicaAgreement digest-compares a publication across every live holder
// (GET /digest through each transport; a holder serves every insert it
// acknowledged): all must serve bit-identical marginal cubes at one
// generation. A nil error is the fleet-consistency invariant.
func (f *Fleet) ReplicaAgreement(id string) error {
	p := f.lookup(id)
	if p == nil {
		return fmt.Errorf("fleet: no publication %q", id)
	}
	path := "/digest?id=" + url.QueryEscape(id)
	var digest string
	var gen, first = 0, -1
	for _, h := range p.holders {
		rep := f.replicas[h]
		if !rep.alive.Load() {
			continue
		}
		resp, err := f.control(rep, http.MethodGet, path, nil, nil)
		if err != nil {
			return fmt.Errorf("fleet: replica %d: %w", h, err)
		}
		if resp.status == http.StatusNotFound {
			return fmt.Errorf("fleet: replica %d lost publication %q", h, id)
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("fleet: replica %d: digest %q: status %d: %s",
				h, id, resp.status, strings.TrimSpace(string(resp.body)))
		}
		var d struct {
			Generation int    `json:"generation"`
			Digest     string `json:"digest"`
		}
		if err := json.Unmarshal(resp.body, &d); err != nil {
			return fmt.Errorf("fleet: replica %d: decoding digest: %w", h, err)
		}
		if first < 0 {
			first, digest, gen = h, d.Digest, d.Generation
			continue
		}
		if d.Digest != digest || d.Generation != gen {
			return fmt.Errorf("fleet: %q diverges: replica %d g%d %s vs replica %d g%d %s",
				id, first, gen, digest, h, d.Generation, d.Digest)
		}
	}
	if first < 0 {
		return fmt.Errorf("fleet: no live holder of %q", id)
	}
	return nil
}

// Stats is the fleet's operational snapshot (/statsz at the router).
type Stats struct {
	Replicas          int `json:"replicas"`
	ReplicationFactor int `json:"replication_factor"`
	// Transport is how replicas are reached: in-process, spawned, attached.
	Transport    string `json:"transport"`
	Publications int    `json:"publications"`
	Healthy      int    `json:"healthy"`
	Ejected      int    `json:"ejected"`
	Alive        int    `json:"alive"`
	Requests     uint64 `json:"requests"`
	Retries      uint64 `json:"retries"`
	Failovers    uint64 `json:"failovers"`
	Ejections    uint64 `json:"ejections"`
	Probes       uint64 `json:"probes"`
	Reinstated   uint64 `json:"reinstated"`
	Shed         uint64 `json:"shed"`
	// BudgetRejected counts logical requests refused at the router's budget
	// precheck — none of them charged the ledger or reached a replica.
	BudgetRejected uint64 `json:"budget_rejected"`
	// InsertsRouted counts insert batches accepted by at least one holder and
	// appended to a publication's mutation log.
	InsertsRouted uint64 `json:"inserts_routed"`
	// Checkpoints counts mutation logs folded into stored snapshots.
	Checkpoints      uint64 `json:"checkpoints"`
	Unavailable      uint64 `json:"unavailable"`
	Verified         uint64 `json:"verified"`
	VerifyMismatches uint64 `json:"verify_mismatches"`
	// Clients counts exactly tracked budget entries (a lower bound on the
	// distinct-client total once the sketch absorbs a tail); TotalCharged is
	// the exact fleet-cumulative charged sum — the same fields the
	// single-server /statsz reports.
	Clients      int   `json:"clients"`
	TotalCharged int64 `json:"total_charged"`
	// Budget is the router's exposure budget manager snapshot, in the same
	// shape the single-server /statsz uses.
	Budget serve.BudgetStatsz `json:"budget"`
}

// Stats snapshots the router's counters.
func (f *Fleet) Stats() Stats {
	out := Stats{
		Replicas:          f.cfg.Replicas,
		ReplicationFactor: f.cfg.ReplicationFactor,
		Transport:         f.mode.String(),
		Requests:          f.requests.Load(),
		Retries:           f.retries.Load(),
		Failovers:         f.failovers.Load(),
		Ejections:         f.ejections.Load(),
		Probes:            f.probes.Load(),
		Reinstated:        f.reinstated.Load(),
		Shed:              f.shed.Load(),
		BudgetRejected:    f.budgetRejected.Load(),
		InsertsRouted:     f.insertsRouted.Load(),
		Checkpoints:       f.checkpoints.Load(),
		Unavailable:       f.unavailable.Load(),
		Verified:          f.verified.Load(),
		VerifyMismatches:  f.verifyMismatches.Load(),
	}
	bs := f.budget.Snapshot()
	out.Clients = bs.Tracked
	out.TotalCharged = bs.TotalCharged
	out.Budget = serve.BudgetStatszOf(bs)
	f.pubs.mu.RLock()
	out.Publications = len(f.pubs.m)
	f.pubs.mu.RUnlock()
	for _, rep := range f.replicas {
		if rep.alive.Load() {
			out.Alive++
		}
		switch rep.state.Load() {
		case stateEjected:
			out.Ejected++
		default:
			out.Healthy++
		}
	}
	return out
}
