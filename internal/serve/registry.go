package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/dataset"
)

// Entry lifecycle states.
const (
	statePending int32 = iota // build in flight, no publication yet
	stateReady                // publication available via pub.Load()
	stateFailed               // first build failed; failure holds the error
)

// stateName renders a state for the wire.
func stateName(s int32) string {
	switch s {
	case statePending:
		return "pending"
	case stateReady:
		return "ready"
	default:
		return "failed"
	}
}

// entry is one registry slot: the durable identity of a publication key plus
// the atomically-swapped current Publication. Queries read pub with one
// atomic load; publishes and refreshes build off to the side and swap, so
// readers never wait on a build. Incremental publications additionally carry
// the mutable streaming state, serialized by incMu — the only lock on the
// insert path, never taken by pure queries. Once an incremental entry is
// ready, every store of its pub happens under incMu: insert appends,
// compaction installs and refreshes.
type Entry struct {
	id      string
	key     string
	created time.Time
	// reqCopy is the normalized request the entry was created for; refresh
	// rebuilds from it. Immutable after creation (Wait is zeroed so the
	// stored copy is canonical).
	reqCopy PublishRequest

	state   atomic.Int32
	pub     atomic.Pointer[Publication]
	failure atomic.Pointer[string]

	// done is closed when the first build settles (ready or failed); Wait
	// and /query block on it instead of polling.
	done     chan struct{}
	doneOnce sync.Once

	// buildMu serializes build-state transitions (starting a retry of a
	// failed build, tracking its completion channel). The query path never
	// takes it — readers see state/pub through the atomics above.
	buildMu   sync.Mutex
	retryDone chan struct{} // open while a retry build is in flight; guarded by buildMu

	// Incremental state: inc is set exactly once, by the generation-0 build
	// or a restore.
	incMu sync.Mutex
	inc   *core.Incremental

	// Raw-group overlay state for the delta-insert path, guarded by incMu:
	// ovIdx maps encoded group key -> index into ovBase.Groups, and is only
	// valid while the served publication's Groups is ovBase (overlayRaw
	// rebuilds it otherwise, e.g. after a refresh).
	ovBase *dataset.GroupSet
	ovIdx  map[uint64]int32

	// compacting admits at most one background compaction per entry.
	compacting atomic.Bool
}

// ID returns the publication id of the entry.
func (e *Entry) ID() string { return e.id }

// Status returns the entry's lifecycle state: pending, ready, or failed.
func (e *Entry) Status() string { return stateName(e.state.Load()) }

// Publication returns the entry's current publication, or the build error.
// It does not wait: a pending entry reports an error (publish with wait, or
// block on the entry's first build via Server.Publish).
func (e *Entry) Publication() (*Publication, error) {
	if pub := e.pub.Load(); pub != nil {
		return pub, nil
	}
	if msg := e.failure.Load(); msg != nil {
		return nil, fmt.Errorf("serve: publication %s failed: %s", e.id, *msg)
	}
	return nil, fmt.Errorf("serve: publication %s is still building", e.id)
}

// settle records the outcome of a build and unblocks first-build waiters.
// It is reused by retries of a failed first build (doneOnce makes the
// channel close idempotent); success clears any stale failure message.
func (e *Entry) settle(pub *Publication, err error) {
	if err != nil {
		msg := err.Error()
		e.failure.Store(&msg)
		e.state.Store(stateFailed)
	} else {
		e.pub.Store(pub)
		e.failure.Store(nil)
		e.state.Store(stateReady)
	}
	e.doneOnce.Do(func() { close(e.done) })
}

// registry is the sharded publication store. Shard count is fixed at
// construction (rounded up to a power of two); each shard guards its map
// with one RWMutex, so lookups from query traffic take a read-lock on 1/Nth
// of the keyspace and publication inserts never block reads on other
// shards. Entries are never removed — a publication server's working set is
// bounded by the distinct (dataset, params) keys it is asked for.
type registry struct {
	shards []regShard
	mask   uint64
	count  atomic.Int64 // total entries across shards (for the creation cap)
}

type regShard struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// newRegistry builds a registry with at least n shards (n ≤ 0 means 16).
func newRegistry(n int) *registry {
	if n <= 0 {
		n = 16
	}
	size := 1
	for size < n {
		size <<= 1
	}
	r := &registry{shards: make([]regShard, size), mask: uint64(size - 1)}
	for i := range r.shards {
		r.shards[i].entries = make(map[string]*Entry)
	}
	return r
}

func (r *registry) shardFor(id string) *regShard {
	h := fnv.New64a()
	h.Write([]byte(id))
	return &r.shards[h.Sum64()&r.mask]
}

// getOrCreate returns the entry for id, creating a pending one when absent.
// created reports whether this call created it — the registry-level dedupe:
// concurrent identical publishes race on one shard lock and exactly one
// caller sees created == true and starts the build. A key mismatch on an
// existing id (an fnv64 collision between distinct request keys) is
// reported as an error rather than silently serving the wrong publication.
func (r *registry) getOrCreate(id, key string, req PublishRequest, max int) (e *Entry, created bool, err error) {
	req.Wait = false
	s := r.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		if e.key != key {
			return nil, false, fmt.Errorf("serve: id collision between %q and %q", e.key, key)
		}
		return e, false, nil
	}
	if max > 0 && r.count.Load() >= int64(max) {
		return nil, false, fmt.Errorf("serve: %w: %d distinct keys", ErrCapacity, max)
	}
	e = &Entry{id: id, key: key, created: time.Now(), reqCopy: req, done: make(chan struct{})}
	s.entries[id] = e
	r.count.Add(1)
	return e, true, nil
}

// get returns the entry for id, or nil.
func (r *registry) get(id string) *Entry {
	s := r.shardFor(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entries[id]
}

// list snapshots all entries, oldest first (ties broken by id).
func (r *registry) list() []*Entry {
	var out []*Entry
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			out = append(out, e)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].created.Equal(out[b].created) {
			return out[a].created.Before(out[b].created)
		}
		return out[a].id < out[b].id
	})
	return out
}

// counts returns (total, pending) entries.
func (r *registry) counts() (total, pending int) {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		total += len(s.entries)
		for _, e := range s.entries {
			if e.state.Load() == statePending {
				pending++
			}
		}
		s.mu.RUnlock()
	}
	return total, pending
}
