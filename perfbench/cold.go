package main

import (
	"fmt"
	"time"

	"github.com/reconpriv/reconpriv/internal/chimerge"
	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/stats"
)

// coldSpanBase keeps cold-path span IDs clear of the load's (which start
// at 0).
const coldSpanBase = 1 << 40

// replayCold runs a publication's cold path in process, stage by stage in
// the order the server's build runs it, each stage under a span. For an
// incremental publication it returns the streaming publisher and its
// marginal index, which the traced ingest replay then extends.
func replayCold(o *outcome, req serve.PublishRequest) (*core.Incremental, *query.Marginals, error) {
	if err := req.Normalize(); err != nil {
		return nil, nil, err
	}
	if o.cold == nil {
		o.cold = newTracer(time.Now(), coldSpanBase)
	}
	tr := o.cold
	rid := -int64(len(tr.spans)) - 1
	root := tr.begin(rid, -1, "publish")
	defer tr.end(root)

	var raw *dataset.Table
	var err error
	tr.do(rid, root, "datagen.generate", func() { raw, err = rawTable(req) })
	if err != nil {
		return nil, nil, err
	}
	pm := req.Params()
	var published *dataset.GroupSet
	var inc *core.Incremental
	if req.Method == serve.MethodIncremental {
		tr.do(rid, root, "core.publish", func() {
			if inc, err = core.NewIncremental(raw.Schema, pm, stats.NewRand(req.Seed)); err != nil {
				return
			}
			if err = inc.AddTable(raw); err != nil {
				return
			}
			inc.MarkFlushed()
			published = inc.Snapshot()
		})
	} else {
		var merge *chimerge.Result
		if sig := *req.Significance; sig > 0 {
			tr.do(rid, root, "chimerge.analyze", func() { merge, err = chimerge.Analyze(raw, sig, 0) })
			if err != nil {
				return nil, nil, err
			}
		}
		var groups *dataset.GroupSet
		tr.do(rid, root, "dataset.group", func() {
			if merge == nil {
				groups = dataset.GroupsOfParallel(raw, 0)
				return
			}
			groups, err = dataset.GroupsOfMapped(raw, merge.Mappings, 0)
		})
		if err != nil {
			return nil, nil, err
		}
		tr.do(rid, root, "core.publish", func() { published, _, err = core.PublishSPSParallel(req.Seed, groups, pm, 0) })
	}
	if err != nil {
		return nil, nil, fmt.Errorf("replaying the cold path: %w", err)
	}
	var marg *query.Marginals
	tr.do(rid, root, "query.index", func() { marg, err = query.BuildMarginalsFromGroupsParallel(published, req.MaxDim, 0) })
	return inc, marg, err
}
