package serve

import (
	"fmt"
	"os"
	"time"

	"github.com/reconpriv/reconpriv/internal/chimerge"
	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/stats"
)

// publishSeed derives the RNG seed of one publication generation. Generation
// 0 uses the requested seed verbatim, so a served publication is
// bit-identical to what cmd/rpperturb produces offline with the same seed;
// refreshes mix the generation through SplitMix64 for a well-separated
// fresh stream.
func publishSeed(seed int64, generation int) int64 {
	if generation == 0 {
		return seed
	}
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(generation)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// loadTable returns the raw table behind a request, generating (or reading)
// it at most once per source: results are cached by sourceKey and a cache
// miss runs under singleflight, so a stampede of publishes over one dataset
// — a parameter sweep, say — generates the 300K-record CENSUS exactly once.
func (s *Server) loadTable(req *PublishRequest) (*dataset.Table, error) {
	key := req.sourceKey()
	s.tables.mu.RLock()
	t := s.tables.m[key]
	s.tables.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	v, err, _ := s.sf.Do("table:"+key, func() (any, error) {
		s.tables.mu.RLock()
		t := s.tables.m[key]
		s.tables.mu.RUnlock()
		if t != nil {
			return t, nil
		}
		t, err := generateTable(req)
		if err != nil {
			return nil, err
		}
		// Prime the lazy label indexes while the table is still private to
		// this flight: concurrent builds sharing the cached table (and the
		// query path resolving labels) may then use Code read-only.
		t.Schema.PrimeIndexes()
		s.tables.mu.Lock()
		s.tables.m[key] = t
		s.tables.mu.Unlock()
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*dataset.Table), nil
}

// generateTable materializes the request's data source.
func generateTable(req *PublishRequest) (*dataset.Table, error) {
	switch req.Dataset {
	case DatasetAdult:
		return datagen.Adult(req.DataSeed), nil
	case DatasetCensus:
		return datagen.Census(req.Size, req.DataSeed)
	case DatasetMedical:
		return datagen.Medical(req.Size, req.DataSeed)
	case DatasetMedicalColor:
		return datagen.MedicalWithColor(req.Size, req.DataSeed)
	case DatasetCSV:
		f, err := os.Open(req.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadCSV(f, req.SA)
	}
	return nil, fmt.Errorf("serve: unknown dataset %q", req.Dataset)
}

// buildPublication runs the full pipeline for one generation of a
// publication: load (cached) raw data, generalize, publish with the
// requested method, and index the result for answering. It is the only
// expensive path in the server and runs outside all registry locks; its
// output is immutable.
//
// The cold path is fused and parallel (Config.PipelineWorkers wide): the
// chi-square analysis is one sharded scan (chimerge.Analyze), the
// generalized table is never materialized — grouping applies the value
// mappings on the fly (dataset.GroupsOfMapped) — and the marginal cubes
// fill concurrently. Every stage is bit-identical at any worker count, so
// a publication is still reproducible from its seed alone.
func (s *Server) buildPublication(e *Entry, generation int) (*Publication, error) {
	req := &e.reqCopy
	start := time.Now()
	raw, err := s.loadTable(req)
	if err != nil {
		return nil, err
	}
	pm := req.Params()
	seed := publishSeed(req.Seed, generation)
	if req.Method == MethodIncremental {
		// Incremental publications never generalize, so raw is the working
		// table (Normalize forces Significance to 0). A restore installs its
		// publisher before it gets here.
		e.incMu.Lock()
		defer e.incMu.Unlock()
		if e.inc == nil {
			inc, err := core.NewIncremental(raw.Schema, pm, stats.NewRand(seed))
			if err != nil {
				return nil, err
			}
			if err := inc.AddTable(raw); err != nil {
				return nil, err
			}
			e.inc = inc
		}
		return s.indexIncremental(e, generation, start)
	}

	workers := s.cfg.PipelineWorkers
	var merge *chimerge.Result
	mapping := make([]*dataset.ValueMapping, raw.Schema.NumAttrs())
	if sig := *req.Significance; sig > 0 {
		merge, err = chimerge.Analyze(raw, sig, workers)
		if err != nil {
			return nil, err
		}
		for i := range merge.Mappings {
			mapping[merge.Mappings[i].Attr] = &merge.Mappings[i]
		}
	}
	var groups *dataset.GroupSet
	if merge != nil {
		groups, err = dataset.GroupsOfMapped(raw, merge.Mappings, workers)
		if err != nil {
			return nil, err
		}
	} else {
		groups = dataset.GroupsOfParallel(raw, workers)
	}

	var published *dataset.GroupSet
	var st *core.SPSStats
	switch req.Method {
	case MethodSPS:
		published, st, err = core.PublishSPSParallel(seed, groups, pm, s.cfg.PublishWorkers)
	case MethodUP:
		published, err = core.PublishUPParallel(seed, groups, pm.P, s.cfg.PublishWorkers)
	default:
		err = fmt.Errorf("serve: unknown method %q", req.Method)
	}
	if err != nil {
		return nil, err
	}

	marg, err := query.BuildMarginalsFromGroupsParallel(published, req.MaxDim, workers)
	if err != nil {
		return nil, err
	}
	eng, err := reconstruct.NewEngine(marg, pm.P)
	if err != nil {
		return nil, err
	}
	// Label resolution runs concurrently across query workers; the lazy
	// label indexes must be built before the schemas are shared. The raw
	// schema was primed by loadTable (it is shared across builds); the
	// generalized schema is private to this build (Remap clones it).
	marg.Schema.PrimeIndexes()
	return &Publication{
		ID:         e.id,
		Key:        e.key,
		Req:        e.reqCopy,
		Generation: generation,
		CreatedAt:  time.Now(),
		BuildTime:  time.Since(start),
		Meta:       core.ExtractMeta(groups, pm, st),
		Marg:       marg,
		Eng:        eng,
		Groups:     groups,
		Orig:       raw.Schema,
		mapping:    mapping,
	}, nil
}

// indexIncremental indexes the whole state of an incremental publication's
// streaming publisher as one flat generation. The first build, a refresh, a
// restore, and an insert whose delta could not be appended all end here.
// The caller holds e.incMu from before this call until the result is stored
// in e.pub or dropped: the delta baselines advance to the snapshot taken
// here, so an insert that slipped in before the store would be in neither
// this index nor the next delta.
func (s *Server) indexIncremental(e *Entry, generation int, start time.Time) (*Publication, error) {
	req := &e.reqCopy
	e.inc.MarkFlushed()
	snap := e.inc.Snapshot()
	// Metadata derives from the publisher's current raw histograms, not the
	// generation-0 table: after inserts, a refresh must report the stream's
	// violation profile, not the initial batch's. RawGroups materializes
	// fresh slices, so the snapshot never aliases the live publisher state.
	raw := e.inc.RawGroups()
	meta := core.ExtractMeta(raw, req.Params(), nil)
	meta.RecordsOut = snap.Total()
	marg, err := query.BuildMarginalsFromGroupsParallel(snap, req.MaxDim, s.cfg.PipelineWorkers)
	if err != nil {
		return nil, err
	}
	eng, err := reconstruct.NewEngine(marg, req.P)
	if err != nil {
		return nil, err
	}
	// The publisher's schema is the primed raw schema (loadTable), so this
	// only reads.
	marg.Schema.PrimeIndexes()
	return &Publication{
		ID:         e.id,
		Key:        e.key,
		Req:        e.reqCopy,
		Generation: generation,
		CreatedAt:  time.Now(),
		BuildTime:  time.Since(start),
		Meta:       meta,
		Marg:       marg,
		Eng:        eng,
		Groups:     raw,
		Orig:       raw.Schema,
		mapping:    make([]*dataset.ValueMapping, raw.Schema.NumAttrs()),
	}, nil
}
