package serve

import (
	"fmt"
	"net/http"

	"github.com/reconpriv/reconpriv/internal/core"
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
// merge into live state. For batch methods the build is the deterministic
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
	if req.Method == MethodIncremental {
		err = s.restorePublisher(e, snap.Inc)
	}
	var pub *Publication
	if err == nil {
		pub, err = s.buildPublication(e, snap.Generation)
	}
	e.settle(pub, err)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// restorePublisher installs a snapshot's streaming publisher, mid-stream,
// on the fresh entry restore created; buildPublication then indexes its
// whole state at the checkpointed generation. Digests agree with the
// checkpointed holder because marginal checksums fold effective counts
// (stable across generation stacking) and RawGroups emits insertion order —
// the same order the holder's overlay maintained.
func (s *Server) restorePublisher(e *Entry, st *core.IncrementalState) error {
	raw, err := s.loadTable(&e.reqCopy)
	if err != nil {
		return err
	}
	inc, err := core.RestoreIncremental(raw.Schema, e.reqCopy.Params(), st)
	if err != nil {
		return err
	}
	e.incMu.Lock()
	e.inc = inc
	e.incMu.Unlock()
	return nil
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
	pub, ok := s.resolvePublication(w, id, true)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, digestResponse{ID: pub.ID, Generation: pub.Generation, Digest: pub.Digest()})
}
