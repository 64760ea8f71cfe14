package serve

import (
	"time"

	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
)

// This file is the streaming-ingest hot path behind POST /insert. It is
// LSM-shaped: each accepted batch flushes the publisher's per-group
// increments (core.Incremental.FlushDelta), builds a small marginal index
// over only those increments, and appends it as an immutable generation
// behind the publication's atomic pointer (query.Marginals.WithDelta). Read
// paths sum the generation stack positionally; a background compactor folds
// the stack back into one flat arena once it grows past Config.CompactEvery.
// Work per batch is proportional to the batch (plus an O(|G|) metadata
// pass), not to the accumulated stream.
//
// Every store of a ready incremental publication's pointer — append,
// compaction install, refresh — happens under the entry's incMu, so an
// insert lands either before a refresh's snapshot or as a delta on the new
// generation, and an acknowledged batch is served as soon as its response
// is written. Compaction changes no answer and no digest (checksums fold
// effective counts), so its timing is unobservable everywhere except the
// /statsz compactions counter.

// applyInsert ingests one resolved batch (keys in NAIndices order, sensitive
// codes aligned) and extends the served index before it returns.
// handleInsert calls it for either encoding; the returned response has
// every field set except ID.
func (s *Server) applyInsert(e *Entry, keys [][]uint16, sas []uint16) (insertResponse, error) {
	var resp insertResponse
	e.incMu.Lock()
	defer e.incMu.Unlock()
	for i := range keys {
		fresh, err := e.inc.Add(keys[i], sas[i])
		if err != nil {
			// Unreachable after resolveRecords, which checks what Add
			// checks. The records before i stay in the publisher and reach
			// the index with the next append or refresh.
			return resp, err
		}
		if fresh {
			resp.Trials++
		} else {
			resp.Absorbed++
		}
	}
	resp.Inserted = len(keys)
	resp.TotalRecords = e.inc.Stats().Records

	if s.appendDelta(e) {
		return resp, nil
	}
	// The delta did not extend the index (its increments are flushed but
	// safe in the publisher): index the publisher's whole state before
	// answering.
	pub, err := s.indexIncremental(e, e.pub.Load().Generation, time.Now())
	if err != nil {
		return resp, err
	}
	e.pub.Store(pub)
	return resp, nil
}

// appendDelta flushes the publisher's pending increments and stores a
// publication extended by one delta generation. The caller holds incMu. A
// false return means the index was not extended.
func (s *Server) appendDelta(e *Entry) bool {
	old := e.pub.Load()
	d := e.inc.FlushDelta()
	if len(d.Pub.Groups) == 0 && len(d.Raw.Groups) == 0 {
		return true
	}
	dm, err := query.BuildMarginalsFromGroups(d.Pub, old.Req.MaxDim)
	if err != nil {
		return false
	}
	marg, err := old.Marg.WithDelta(dm)
	if err != nil {
		return false
	}
	eng, err := reconstruct.NewEngine(marg, old.Req.P)
	if err != nil {
		return false
	}
	raw := e.overlayRaw(old, d.Raw)
	meta := core.ExtractMeta(raw, old.Req.Params(), nil)
	meta.RecordsOut = marg.Total()

	pub := *old // shallow copy: shared fields are immutable
	pub.Marg = marg
	pub.Eng = eng
	pub.Groups = raw
	pub.Meta = meta
	e.pub.Store(&pub)
	e.ovBase = raw
	s.ingestAppends.Add(1)
	if ce := s.cfg.CompactEvery; ce > 0 && marg.Generations() > ce && !e.compacting.Swap(true) {
		go s.compactEntry(e)
	}
	return true
}

// overlayRaw merges a raw-histogram delta onto the current raw-group
// snapshot without re-materializing the stream: unchanged groups share their
// histogram slices with the base (they are never mutated after
// construction), changed groups get a fresh summed histogram, and new groups
// append in first-touch order — the same order a fresh
// core.Incremental.RawGroups materialization would emit, so digests agree.
// The entry-held key index survives across batches and self-heals whenever
// the base is not the one it was built for (after a refresh). Called under
// incMu.
func (e *Entry) overlayRaw(old *Publication, d *dataset.GroupSet) *dataset.GroupSet {
	base := old.Groups
	if e.ovBase != base || e.ovIdx == nil {
		e.ovIdx = make(map[uint64]int32, base.NumGroups())
		for i := range base.Groups {
			e.ovIdx[base.EncodeKey(base.Groups[i].Key)] = int32(i)
		}
	}
	out := dataset.NewGroupSet(base.Schema)
	out.Groups = make([]dataset.Group, len(base.Groups), len(base.Groups)+len(d.Groups))
	copy(out.Groups, base.Groups)
	for di := range d.Groups {
		dg := &d.Groups[di]
		k := base.EncodeKey(dg.Key)
		if i, ok := e.ovIdx[k]; ok {
			g := &out.Groups[i]
			counts := make([]int, len(g.SACounts))
			copy(counts, g.SACounts)
			for j, c := range dg.SACounts {
				counts[j] += c
			}
			g.SACounts = counts
			g.Size += dg.Size
		} else {
			e.ovIdx[k] = int32(len(out.Groups))
			out.Groups = append(out.Groups, dataset.Group{Key: dg.Key, SACounts: dg.SACounts, Size: dg.Size})
		}
	}
	return out
}

// compactEntry folds the entry's generation stack into one flat index. The
// expensive positional sum runs off-lock against the immutable stack; the
// install takes incMu so no insert can append between the staleness check
// and the swap. If the publication moved while compacting (more inserts, a
// refresh), the result is discarded — the next append past the threshold
// re-triggers, so read amplification stays bounded. Answers and digests are
// unchanged by design (Compact is a positional integer sum and Checksum
// folds effective counts), which is what keeps compaction timing invisible
// to the sim's byte-identity checks and the fleet's digest agreement.
func (s *Server) compactEntry(e *Entry) {
	defer e.compacting.Store(false)
	cur := e.pub.Load()
	if cur == nil || cur.Marg.Generations() == 1 {
		return
	}
	marg := cur.Marg.Compact()
	eng, err := reconstruct.NewEngine(marg, cur.Req.P)
	if err != nil {
		return
	}
	e.incMu.Lock()
	defer e.incMu.Unlock()
	pub := *cur
	pub.Marg = marg
	pub.Eng = eng
	if e.pub.CompareAndSwap(cur, &pub) {
		s.compactions.Add(1)
	}
}
