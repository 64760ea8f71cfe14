package serve

import (
	"fmt"
	"net/http"
	"time"

	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
)

// PublicationSnapshot is the portable checkpoint of one publication: the
// normalized publish request, the generation counter, and — for incremental
// publications — the complete streaming-publisher state. Batch publications
// (sps/up) need nothing beyond request + generation: publishSeed makes every
// generation addressable, so a restore rebuilds the exact bits
// deterministically. Incremental publications carry the mid-stream RNG and
// histogram state instead, because their stream position cannot be recomputed
// from the request alone. A server restored from a snapshot serves a
// publication digest-identical to the one the snapshot was taken from.
type PublicationSnapshot struct {
	Req        PublishRequest         `json:"req"`
	Generation int                    `json:"generation"`
	Inc        *core.IncrementalState `json:"inc,omitempty"`
}

// SnapshotPublication captures the checkpoint of a publication. The caller
// must ensure no mutation (/insert, /refresh) is in flight for the id — the
// fleet router holds its per-publication mutation lock across the call — or
// the captured generation and stream state may straddle a mutation.
func (s *Server) SnapshotPublication(id string) (*PublicationSnapshot, error) {
	e := s.reg.get(id)
	if e == nil {
		return nil, fmt.Errorf("serve: no publication %q", id)
	}
	<-e.done
	pub, err := e.Publication()
	if err != nil {
		return nil, err
	}
	snap := &PublicationSnapshot{Req: e.reqCopy, Generation: pub.Generation}
	if e.inc != nil {
		e.incMu.Lock()
		snap.Inc = e.inc.State()
		if p2 := e.pub.Load(); p2 != nil {
			snap.Generation = p2.Generation
		}
		e.incMu.Unlock()
	}
	return snap, nil
}

// RestorePublication installs a snapshot into this server as a fresh
// publication and builds its serving index synchronously. The target id must
// not already exist — restore initializes a replacement replica, it does not
// reconcile live state. For batch methods the build is the deterministic
// generation rebuild; for incremental publications the streaming publisher
// is restored mid-stream and a flat index is materialized from its full
// state, after which the delta baselines are aligned with that index so the
// next insert flushes only what the index lacks.
func (s *Server) RestorePublication(snap *PublicationSnapshot) (*Entry, error) {
	req := snap.Req
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	if req.Dataset == DatasetCSV && !s.cfg.AllowCSV {
		return nil, fmt.Errorf("serve: csv sources are disabled (enable with -allow-csv)")
	}
	if snap.Generation < 0 {
		return nil, fmt.Errorf("serve: snapshot has negative generation %d", snap.Generation)
	}
	if req.Method == MethodIncremental && snap.Inc == nil {
		return nil, fmt.Errorf("serve: incremental snapshot is missing the publisher state")
	}
	key := req.Key()
	e, created, err := s.reg.getOrCreate(IDForKey(key), key, req, s.cfg.MaxPublications)
	if err != nil {
		return nil, err
	}
	if !created {
		return nil, fmt.Errorf("serve: publication %q already exists; restore targets a fresh replica", e.id)
	}
	var pub *Publication
	if req.Method == MethodIncremental {
		pub, err = s.buildFromIncState(e, snap)
	} else {
		pub, err = s.buildPublication(e, snap.Generation)
	}
	e.settle(pub, err)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// buildFromIncState materializes a publication from a restored streaming
// publisher: the snapshot's full state becomes one flat generation carrying
// the checkpointed generation number. Digests agree with the checkpointed
// holder because marginal checksums fold effective counts (stable across
// generation stacking) and RawGroups emits insertion order — the same order
// the holder's overlay maintained.
func (s *Server) buildFromIncState(e *Entry, snap *PublicationSnapshot) (*Publication, error) {
	req := &e.reqCopy
	start := time.Now()
	raw, err := s.loadTable(req)
	if err != nil {
		return nil, err
	}
	pm := req.Params()
	inc, err := core.RestoreIncremental(raw.Schema, pm, snap.Inc)
	if err != nil {
		return nil, err
	}
	e.incMu.Lock()
	e.inc = inc
	// The index below covers the publisher's entire state; align the delta
	// baselines with it (cf. buildIncremental).
	inc.MarkFlushed()
	e.dirty.Store(false)
	snapGS := inc.Snapshot()
	rawGS := inc.RawGroups()
	e.incMu.Unlock()
	meta := core.ExtractMeta(rawGS, pm, nil)
	meta.RecordsOut = snapGS.Total()
	marg, err := query.BuildMarginalsFromGroupsParallel(snapGS, req.MaxDim, s.cfg.PipelineWorkers)
	if err != nil {
		return nil, err
	}
	eng, err := reconstruct.NewEngine(marg, pm.P)
	if err != nil {
		return nil, err
	}
	marg.Schema.PrimeIndexes()
	return &Publication{
		ID:         e.id,
		Key:        e.key,
		Req:        e.reqCopy,
		Generation: snap.Generation,
		CreatedAt:  time.Now(),
		BuildTime:  time.Since(start),
		Meta:       meta,
		Marg:       marg,
		Eng:        eng,
		Groups:     rawGS,
		Orig:       raw.Schema,
		mapping:    make([]*dataset.ValueMapping, raw.Schema.NumAttrs()),
	}, nil
}

// snapshotRequest is the body of POST /snapshot.
type snapshotRequest struct {
	ID string `json:"id"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req snapshotRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	snap, err := s.SnapshotPublication(req.ID)
	if err != nil {
		WriteError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, snap)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var snap PublicationSnapshot
	if !DecodeJSON(w, r, &snap) {
		return
	}
	e, err := s.RestorePublication(&snap)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, entryJSON(e, false))
}

// digestResponse is the body of GET /digest — the replica-agreement probe
// the fleet router compares across holders without shipping publications.
type digestResponse struct {
	ID         string `json:"id"`
	Generation int    `json:"generation"`
	Digest     string `json:"digest"`
}

func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("missing id"))
		return
	}
	// resolvePublication re-indexes a dirty incremental entry first, so the
	// digest always reflects every acknowledged insert.
	pub, ok := s.resolvePublication(w, id, true, true)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, digestResponse{ID: pub.ID, Generation: pub.Generation, Digest: pub.Digest()})
}
