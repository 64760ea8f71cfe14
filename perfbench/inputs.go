package main

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/stats"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// Section 6.1's workload: conjunctive count queries of d ∈ 1..3 conditions
// that select at least 0.1% of the original data.
const (
	maxQueryDim    = 3
	minSelectivity = 0.001
)

// reference is an in-process copy of a served publication, built from the
// same publish request as the server's. Publications are deterministic, so
// the copy is bit-identical to the served one.
type reference struct {
	srv  *serve.Server
	pub  *serve.Publication
	raw  *dataset.Table   // the original data, for the selectivity filter
	orig *query.Marginals // marginals of raw
}

// newReference publishes req on a fresh in-process server.
func newReference(req serve.PublishRequest) (*reference, error) {
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{BudgetQuota: -1})
	e, _, err := srv.Publish(req, true)
	if err != nil {
		return nil, err
	}
	pub, err := e.Publication()
	if err != nil {
		return nil, err
	}
	raw, err := rawTable(req)
	if err != nil {
		return nil, err
	}
	orig, err := query.BuildMarginalsParallel(raw, maxQueryDim, 0)
	if err != nil {
		return nil, err
	}
	return &reference{srv: srv, pub: pub, raw: raw, orig: orig}, nil
}

// rawTable generates a request's original data, as the server does.
func rawTable(req serve.PublishRequest) (*dataset.Table, error) {
	switch req.Dataset {
	case serve.DatasetAdult:
		return datagen.Adult(req.DataSeed), nil
	case serve.DatasetCensus:
		return datagen.Census(req.Size, req.DataSeed)
	case serve.DatasetMedical:
		return datagen.Medical(req.Size, req.DataSeed)
	}
	return nil, fmt.Errorf("no generator for dataset %q", req.Dataset)
}

// randomConds draws d ∈ 1..maxDim distinct public attributes with uniform
// original value codes.
func randomConds(rng *stats.Rand, schema *dataset.Schema, maxDim int) []wire.Cond {
	na := schema.NAIndices()
	d := 1 + rng.Intn(min(maxDim, len(na)))
	conds := make([]wire.Cond, 0, d)
	for _, pi := range rng.Perm(len(na))[:d] {
		a := na[pi]
		conds = append(conds, wire.Cond{Attr: a, Value: uint16(rng.Intn(schema.Attrs[a].Domain()))})
	}
	return conds
}

// queryPool is a set of Section 6.1 queries over a publication's original
// codes, with the reference answer of each. Requests draw from it, so the
// reference answers are computed once, not per request.
type queryPool struct {
	qs    []wire.Query
	count []int64
	est   []float64
}

// newPool draws n queries that pass the selectivity filter on the original
// data and answers them on the reference publication.
func newPool(rng *stats.Rand, ref *reference, n int) (*queryPool, error) {
	schema := ref.raw.Schema
	total := float64(ref.orig.Total())
	p := &queryPool{}
	for tries := 0; len(p.qs) < n; tries++ {
		if tries > 1000*n {
			return nil, fmt.Errorf("only %d of %d queries reach selectivity %v", len(p.qs), n, minSelectivity)
		}
		q := wire.Query{SA: uint16(rng.Intn(schema.SADomain())), Conds: randomConds(rng, schema, maxQueryDim)}
		c, err := ref.orig.Count(query.Query{Conds: q.Conds, SA: q.SA})
		if err != nil {
			return nil, err
		}
		if float64(c)/total >= minSelectivity {
			p.qs = append(p.qs, q)
		}
	}
	var err error
	p.count, p.est, err = answer(ref.pub, p.qs)
	return p, err
}

// answer evaluates original-code queries on a publication through its
// exported code mapping and batch evaluator.
func answer(pub *serve.Publication, qs []wire.Query) ([]int64, []float64, error) {
	mapped := make([]query.Query, len(qs))
	for i, q := range qs {
		conds := append([]query.Cond(nil), q.Conds...)
		if err := pub.MapConds(conds); err != nil {
			return nil, nil, err
		}
		if err := pub.MapSA(q.SA); err != nil {
			return nil, nil, err
		}
		mapped[i] = query.Query{Conds: conds, SA: q.SA}
	}
	counts := make([]int64, len(qs))
	ests := make([]float64, len(qs))
	for i, a := range pub.Marg.AnswerBatch(mapped, pub.Req.P, 0) {
		if a.Err != nil {
			return nil, nil, fmt.Errorf("reference query %d: %v", i, a.Err)
		}
		counts[i], ests[i] = int64(a.Count), a.Estimate
	}
	return counts, ests, nil
}

// sameAnswer reports whether a served answer equals the reference bit for
// bit.
func sameAnswer(count int64, est float64, wantCount int64, wantEst float64) bool {
	return count == wantCount && math.Float64bits(est) == math.Float64bits(wantEst)
}

// jsonQuery spells an original-code query in labels, as JSON clients do.
func jsonQuery(schema *dataset.Schema, q wire.Query) serve.QueryJSON {
	return serve.QueryJSON{SA: schema.SAAttr().Label(q.SA), Conds: jsonConds(schema, q.Conds)}
}

func jsonConds(schema *dataset.Schema, conds []wire.Cond) []serve.CondJSON {
	out := make([]serve.CondJSON, len(conds))
	for i, c := range conds {
		out[i] = serve.CondJSON{Attr: schema.Attrs[c.Attr].Name, Value: schema.Attrs[c.Attr].Label(c.Value)}
	}
	return out
}

// checkQuery compares the /query response in lc.buf, in either encoding,
// with the pool's reference answers for the queries at idx, settles the
// client's charge, and returns the response's serve_us.
func checkQuery(lc *loadConn, pool *queryPool, pubID, client string, idx []int, binary bool) (int64, error) {
	mismatch := func(i int, count int64, est float64, msg string) error {
		j := idx[i]
		return fmt.Errorf("%s query %d: served (%d, %v, %q), reference (%d, %v)", pubID, i, count, est, msg, pool.count[j], pool.est[j])
	}
	var charged, total, serveUS int64
	if binary {
		resp := &lc.qresp
		if err := resp.Decode(lc.buf.Bytes()); err != nil {
			return 0, fmt.Errorf("decoding /query response: %w", err)
		}
		if len(resp.Answers) != len(idx) {
			return 0, fmt.Errorf("%d answers for %d queries", len(resp.Answers), len(idx))
		}
		for i, a := range resp.Answers {
			if j := idx[i]; a.Err != nil || !sameAnswer(a.Count, a.Estimate, pool.count[j], pool.est[j]) {
				return 0, mismatch(i, a.Count, a.Estimate, string(a.Err))
			}
		}
		charged, total, serveUS = int64(resp.Charged), int64(resp.ClientQueries), int64(resp.ServeMicros)
	} else {
		var resp serve.QueryResponse
		if err := json.Unmarshal(lc.buf.Bytes(), &resp); err != nil {
			return 0, fmt.Errorf("decoding /query response: %w", err)
		}
		if len(resp.Answers) != len(idx) {
			return 0, fmt.Errorf("%d answers for %d queries", len(resp.Answers), len(idx))
		}
		for i, a := range resp.Answers {
			if j := idx[i]; a.Error != "" || !sameAnswer(int64(a.Count), a.Estimate, pool.count[j], pool.est[j]) {
				return 0, mismatch(i, int64(a.Count), a.Estimate, a.Error)
			}
		}
		charged, total, serveUS = resp.Charged, resp.ClientQueries, resp.ServeMicros
	}
	return serveUS, lc.led.settle(client, charged, int64(len(idx)), total)
}
