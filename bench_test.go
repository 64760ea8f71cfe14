package reconpriv

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for paper-vs-measured) and time the
// regeneration. Each benchmark reports domain-specific metrics via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a results
// harness: the headline quantities of each artifact appear next to the
// timing. cmd/rpbench prints the full rows/series.
//
// Benchmarks use fewer perturbation runs per point (3) than the paper's 10
// to keep `go test -bench=.` minutes-scale; cmd/rpbench defaults to 10.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/reconpriv/reconpriv/internal/chimerge"
	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/experiments"
	"github.com/reconpriv/reconpriv/internal/perturb"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/sim"
	"github.com/reconpriv/reconpriv/internal/stats"
	"github.com/reconpriv/reconpriv/internal/wire"
)

const (
	benchRuns       = 3
	benchCensusSize = 300000
)

// BenchmarkTable1NIRAttack regenerates Table 1: the ratio attack on the
// Example-1 rule through differentially private answers.
func BenchmarkTable1NIRAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(10, 1)
		if err != nil {
			b.Fatal(err)
		}
		// ε=0.5 column: the disclosure the paper highlights.
		b.ReportMetric(res.Columns[2].Conf.Mean, "conf@eps0.5")
		b.ReportMetric(res.Columns[2].RelErr1.Mean, "relerr1@eps0.5")
	}
}

// BenchmarkTable2Indicator regenerates Table 2, the closed-form disclosure
// indicator grid.
func BenchmarkTable2Indicator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable2()
		b.ReportMetric(res.Values[1][2], "indicator@b20x500")
	}
}

// BenchmarkTable4ChiMergeAdult regenerates Table 4: the chi-square
// aggregation impact on ADULT (16/14/5/2 → 7/4/2/2, |G| 2240 → 112).
func BenchmarkTable4ChiMergeAdult(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.GroupsAfter), "groups-after")
	}
}

// BenchmarkTable5ChiMergeCensus regenerates Table 5 (CENSUS 300K: Age 77→1,
// |G| 116424 → 1512).
func BenchmarkTable5ChiMergeCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(benchCensusSize)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.GroupsAfter), "groups-after")
	}
}

// BenchmarkFig1MaxGroupSize regenerates both panels of Figure 1 (s_g vs f).
func BenchmarkFig1MaxGroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunFig1("ADULT")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.RunFig1("CENSUS"); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Series[1].SG[0], "sg@f0.5p0.5")
	}
}

// BenchmarkFig2AdultViolation regenerates Figure 2: ADULT violation rates
// across the p, λ, δ sweeps.
func BenchmarkFig2AdultViolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var def float64
		for _, v := range []experiments.SweepVar{experiments.SweepP, experiments.SweepLambda, experiments.SweepDelta} {
			res, err := experiments.RunViolationSweep(true, v, benchCensusSize)
			if err != nil {
				b.Fatal(err)
			}
			def = res.Points[2].VG
		}
		b.ReportMetric(def, "vg@defaults")
	}
}

// BenchmarkFig3AdultError regenerates Figure 3: ADULT relative error of SPS
// vs UP across the p, λ, δ sweeps.
func BenchmarkFig3AdultError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var up, sps float64
		for _, v := range []experiments.SweepVar{experiments.SweepP, experiments.SweepLambda, experiments.SweepDelta} {
			res, err := experiments.RunErrorSweep(true, v, benchCensusSize, benchRuns)
			if err != nil {
				b.Fatal(err)
			}
			up = res.Points[2].UP.Mean
			sps = res.Points[2].SPS.Mean
		}
		b.ReportMetric(up, "up-err@defaults")
		b.ReportMetric(sps, "sps-err@defaults")
	}
}

// BenchmarkFig4CensusViolation regenerates Figure 4: CENSUS violation rates
// across the p, λ, δ and |D| sweeps.
func BenchmarkFig4CensusViolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var vr float64
		for _, v := range []experiments.SweepVar{experiments.SweepP, experiments.SweepLambda, experiments.SweepDelta, experiments.SweepSize} {
			res, err := experiments.RunViolationSweep(false, v, benchCensusSize)
			if err != nil {
				b.Fatal(err)
			}
			vr = res.Points[2].VR
		}
		b.ReportMetric(vr, "vr@defaults")
	}
}

// BenchmarkFig5CensusError regenerates Figure 5: CENSUS relative error of
// SPS vs UP across the p, λ, δ and |D| sweeps.
func BenchmarkFig5CensusError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratio float64
		for _, v := range []experiments.SweepVar{experiments.SweepP, experiments.SweepLambda, experiments.SweepDelta, experiments.SweepSize} {
			res, err := experiments.RunErrorSweep(false, v, benchCensusSize, benchRuns)
			if err != nil {
				b.Fatal(err)
			}
			ratio = res.Points[2].SPS.Mean / res.Points[2].UP.Mean
		}
		b.ReportMetric(ratio, "sps/up@defaults")
	}
}

// BenchmarkAblationBounds compares the plugged-in tail bounds (Theorem 2's
// extension point): Chernoff vs Chebyshev vs Hoeffding vs Markov.
func BenchmarkAblationBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunBoundsAblation(benchCensusSize)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].SGAdult, "chernoff-sg")
		b.ReportMetric(res.Rows[1].SGAdult, "bernstein-sg")
		b.ReportMetric(res.Rows[2].SGAdult, "chebyshev-sg")
	}
}

// BenchmarkAblationEstimators compares MLE, matrix MLE, and iterative Bayes
// reconstruction accuracy and cost.
func BenchmarkAblationEstimators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunEstimatorAblation(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MLE, "mle-l1@50")
		b.ReportMetric(res.Rows[0].EM, "em-l1@50")
	}
}

// BenchmarkAblationReduceP compares SPS against the rejected
// reduce-p-globally alternative on ADULT.
func BenchmarkAblationReduceP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunReducePAblation(true, benchCensusSize, benchRuns)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SPSError.Mean, "sps-err")
		b.ReportMetric(res.ReduceP.Mean, "reducep-err")
	}
}

// BenchmarkAblationPerturbModes compares the reference per-record
// perturbation path with the distribution-identical histogram path.
func BenchmarkAblationPerturbModes(b *testing.B) {
	raw := datagen.Adult(1)
	groups := dataset.GroupsOf(raw)
	rng := stats.NewRand(1)
	b.Run("per-record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := perturb.Table(rng, raw, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PublishUP(rng, groups, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPerturbCounts compares the two implementations of histogram
// perturbation on one large personal group: the O(n) per-record reference
// loop and the O(m) binomial fast path. They draw from the same
// distribution (see TestCountsChiSquareMatchesPerRecord); only the cost
// differs, and the gap is the heart of the sublinear publishing claim.
func BenchmarkPerturbCounts(b *testing.B) {
	// A 100K-record group over a 50-value SA domain with a skewed histogram.
	const m = 50
	counts := make([]int, m)
	total := 0
	for v := 0; v < m; v++ {
		counts[v] = (m - v) * 80
		total += counts[v]
	}
	b.Run("loop", func(b *testing.B) {
		rng := stats.NewRand(1)
		for i := 0; i < b.N; i++ {
			perturb.CountsPerRecord(rng, counts, 0.5)
		}
		b.ReportMetric(float64(total), "records")
	})
	b.Run("binomial", func(b *testing.B) {
		rng := stats.NewRand(1)
		for i := 0; i < b.N; i++ {
			perturb.Counts(rng, counts, 0.5)
		}
		b.ReportMetric(float64(total), "records")
	})
}

// BenchmarkGroupFind times key lookups against the CENSUS group set; the
// binary search runs over the cached encoded keys, so a lookup costs one
// probe encoding plus ~log|G| integer compares.
func BenchmarkGroupFind(b *testing.B) {
	ds, err := experiments.CensusData(benchCensusSize)
	if err != nil {
		b.Fatal(err)
	}
	gs := ds.Groups
	n := gs.NumGroups()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gs.Find(gs.Groups[i%n].Key) == nil {
			b.Fatal("existing key not found")
		}
	}
}

// BenchmarkOutputVsData compares ε-DP Laplace answers against UP and SPS on
// the shared query pool (the Introduction's output- vs data-perturbation
// contrast).
func BenchmarkOutputVsData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOutputVsData(true, benchCensusSize, benchRuns)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SPSError.Mean, "sps-err")
		b.ReportMetric(res.DP[1].DPError.Mean, "dp-err@eps0.5")
	}
}

// BenchmarkAuditAdult runs the Monte-Carlo verification of Corollary 3 on
// ADULT's ten largest personal groups.
func BenchmarkAuditAdult(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAudit(true, benchCensusSize, 1000, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.UP.BoundViolations(0.02)), "bound-violations")
	}
}

// BenchmarkAuditSweep times the parallel per-group audit engine sweeping
// every personal group of CENSUS 300K (the /audit workload). The sweep is
// bit-identical at any worker count; the benchmark runs it at GOMAXPROCS.
func BenchmarkAuditSweep(b *testing.B) {
	ds, err := experiments.CensusData(benchCensusSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.AuditSweep(1, ds.Groups, core.DefaultParams, true, 200, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rep.Groups)), "groups")
	}
	b.StopTimer()
	b.ReportMetric(float64(ds.Groups.NumGroups())*float64(b.N)/b.Elapsed().Seconds(), "groups/s")
}

// BenchmarkReconstructBatch times the index-backed adversary engine
// answering a 1,000-condition reconstruction batch against an SPS
// publication of CENSUS 300K. TestReconstructBatchMatchesScan and
// TestAdversaryBatchMatchesScan pin its answers to the per-call scan
// reference to 1e-12.
func BenchmarkReconstructBatch(b *testing.B) {
	ds, err := experiments.CensusData(benchCensusSize)
	if err != nil {
		b.Fatal(err)
	}
	published, _, err := core.PublishSPSParallel(1, ds.Groups, core.DefaultParams, 0)
	if err != nil {
		b.Fatal(err)
	}
	marg, err := query.BuildMarginalsFromGroups(published, 3)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := reconstruct.NewEngine(marg, core.DefaultParams.P)
	if err != nil {
		b.Fatal(err)
	}
	sets := randomConditionSets(published.Schema, 1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := eng.ReconstructBatch(sets, reconstruct.BatchOptions{})
		for j := range recs {
			if recs[j].Err != nil {
				b.Fatal(recs[j].Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(sets))*float64(b.N)/b.Elapsed().Seconds(), "reconstructions/s")
}

// randomConditionSets draws n deterministic condition sets of 1..maxDim
// distinct public attributes with uniform in-domain values.
func randomConditionSets(schema *dataset.Schema, n, maxDim int) [][]reconstruct.Condition {
	rng := stats.NewRand(7)
	na := schema.NAIndices()
	if maxDim > len(na) {
		maxDim = len(na)
	}
	sets := make([][]reconstruct.Condition, n)
	for i := range sets {
		dim := 1 + rng.Intn(maxDim)
		attrs := rng.Perm(len(na))[:dim]
		set := make([]reconstruct.Condition, dim)
		for j, ai := range attrs {
			a := na[ai]
			set[j] = reconstruct.Condition{Attr: a, Value: uint16(rng.Intn(schema.Attrs[a].Domain()))}
		}
		sets[i] = set
	}
	return sets
}

// BenchmarkSimMixed runs the mixed workload simulation end to end: 8
// concurrent clients driving queries, inserts, refreshes, reconstructions,
// and audits against an in-process publication server over real HTTP, with
// the internal/sim invariant checker validating every step. The benchmark
// fails on any invariant violation, so it doubles as a serving regression
// gate wherever benchmarks run.
func BenchmarkSimMixed(b *testing.B) {
	sc, err := sim.Lookup("mixed")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Options{Scenario: sc, Seed: 1, Clients: 8, Steps: 20})
		if err != nil {
			b.Fatal(err)
		}
		if v := res.Summary.Invariants.Violations; v > 0 {
			b.Fatalf("%d invariant violations: %v", v, res.Summary.Invariants.Failures)
		}
		b.ReportMetric(res.Timing.RequestsPerSec, "requests/s")
		b.ReportMetric(float64(res.Summary.Invariants.Checks), "checks")
	}
}

// BenchmarkIncrementalPublish times streaming publication of the ADULT
// records through the incremental publisher.
func BenchmarkIncrementalPublish(b *testing.B) {
	raw := datagen.Adult(1)
	for i := 0; i < b.N; i++ {
		inc, err := core.NewIncremental(raw.Schema, core.DefaultParams, stats.NewRand(1))
		if err != nil {
			b.Fatal(err)
		}
		if err := inc.AddTable(raw); err != nil {
			b.Fatal(err)
		}
		st := inc.Stats()
		b.ReportMetric(float64(st.Trials)/float64(st.Records), "trial-fraction")
	}
}

// BenchmarkParallelSPSCensus compares the deterministic parallel publisher
// against the sequential one on CENSUS 300K.
func BenchmarkParallelSPSCensus(b *testing.B) {
	ds, err := experiments.CensusData(benchCensusSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.PublishSPSParallel(int64(i), ds.Groups, core.DefaultParams, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishSPSCensus times one full SPS publication of CENSUS 300K —
// the paper's Section 5 claims O(|D| log |D| + |D|); ours is a linear pass
// over group histograms after an O(|D|) grouping.
func BenchmarkPublishSPSCensus(b *testing.B) {
	ds, err := experiments.CensusData(benchCensusSize)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.PublishSPS(rng, ds.Groups, core.DefaultParams); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPoolEvaluate times a 5,000-query pool evaluation against a
// published CENSUS 300K (group-indexed, O(1) per query).
func BenchmarkQueryPoolEvaluate(b *testing.B) {
	ds, err := experiments.CensusData(benchCensusSize)
	if err != nil {
		b.Fatal(err)
	}
	up, err := core.PublishUP(stats.NewRand(1), ds.Groups, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	marg, err := query.BuildMarginalsFromGroups(up, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Pool.Evaluate(marg, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// wireWorkload translates the cached Section 6.1 query pool (generalized
// value codes) into both vocabularies the publication server accepts: JSON
// queries speaking original attribute labels and wire queries speaking
// original codes. For each generalized code, any original value that maps
// to it names the same cube cell, so both workloads are the same queries.
func wireWorkload(ds *experiments.Dataset) ([]serve.QueryJSON, []wire.Query) {
	orig := ds.Raw.Schema
	rev := make([]map[uint16]uint16, orig.NumAttrs()) // attr -> new code -> an old code
	for i := range ds.Merge.Mappings {
		mp := &ds.Merge.Mappings[i]
		r := make(map[uint16]uint16, len(mp.NewValues))
		for old, nw := range mp.OldToNew {
			if _, ok := r[nw]; !ok {
				r[nw] = uint16(old)
			}
		}
		rev[mp.Attr] = r
	}
	jqs := make([]serve.QueryJSON, len(ds.Pool.Queries))
	wqs := make([]wire.Query, len(ds.Pool.Queries))
	for i, q := range ds.Pool.Queries {
		jq := serve.QueryJSON{SA: orig.SAAttr().Label(q.SA)}
		wq := wire.Query{SA: q.SA, Conds: make([]wire.Cond, 0, len(q.Conds))}
		for _, c := range q.Conds {
			code := c.Value
			if r := rev[c.Attr]; r != nil {
				code = r[c.Value]
			}
			jq.Conds = append(jq.Conds, serve.CondJSON{
				Attr:  orig.Attrs[c.Attr].Name,
				Value: orig.Attrs[c.Attr].Label(code),
			})
			wq.Conds = append(wq.Conds, wire.Cond{Attr: c.Attr, Value: code})
		}
		jqs[i] = jq
		wqs[i] = wq
	}
	return jqs, wqs
}

// BenchmarkServedQueryBatch answers the paper's full 5,000-query workload
// (Section 6.1) as one HTTP batch against a served CENSUS 300K publication,
// once per negotiated encoding: the json sub-benchmark runs JSON decode →
// label resolution → cube lookups → JSON encode end to end, the binary
// sub-benchmark sends the batch as one application/x-rp-binary frame and
// decodes the response with a reused wire.QueryResp. The publication is
// built once outside the timed loop. perfbench's paper-batch workload is
// the gated form of the binary arm.
func BenchmarkServedQueryBatch(b *testing.B) {
	ds, err := experiments.CensusData(benchCensusSize)
	if err != nil {
		b.Fatal(err)
	}
	// Budget enforcement off: these duels measure protocol throughput, and
	// a 5,000-query batch replayed b.N times from one client would exhaust
	// any realistic quota.
	srv := serve.New(serve.Config{BudgetQuota: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	e, _, err := srv.Publish(serve.PublishRequest{Dataset: serve.DatasetCensus, Size: benchCensusSize}, true)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Publication(); err != nil {
		b.Fatal(err)
	}
	jqs, wqs := wireWorkload(ds)
	queries := len(wqs)

	b.Run("json", func(b *testing.B) {
		body, err := json.Marshal(map[string]any{
			"id": e.ID(), "client": "bench", "queries": jqs,
		})
		if err != nil {
			b.Fatal(err)
		}
		var out struct {
			Answers []struct {
				Error string `json:"error"`
			} `json:"answers"`
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			out.Answers = out.Answers[:0]
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if len(out.Answers) != queries {
				b.Fatalf("%d answers", len(out.Answers))
			}
			for j := range out.Answers {
				if out.Answers[j].Error != "" {
					b.Fatal(out.Answers[j].Error)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(queries)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})

	b.Run("binary", func(b *testing.B) {
		m := wire.QueryReq{ID: []byte(e.ID()), Client: []byte("bench"), Queries: wqs}
		frame := m.Append(nil)
		var resp wire.QueryResp
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := http.Post(ts.URL+"/query", wire.ContentType, bytes.NewReader(frame))
			if err != nil {
				b.Fatal(err)
			}
			buf.Reset()
			_, err = buf.ReadFrom(r.Body)
			r.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if r.StatusCode != http.StatusOK {
				b.Fatalf("status %d: %s", r.StatusCode, buf.Bytes())
			}
			if err := resp.Decode(buf.Bytes()); err != nil {
				b.Fatal(err)
			}
			if len(resp.Answers) != queries {
				b.Fatalf("%d answers", len(resp.Answers))
			}
			for j := range resp.Answers {
				if resp.Answers[j].Err != nil {
					b.Fatal(string(resp.Answers[j].Err))
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(queries)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkAnswerBatch isolates the in-process batch evaluator from the
// HTTP layer: the same 5,000 queries against the same publication's
// marginal index, with the default worker pool.
func BenchmarkAnswerBatch(b *testing.B) {
	ds, err := experiments.CensusData(benchCensusSize)
	if err != nil {
		b.Fatal(err)
	}
	published, _, err := core.PublishSPSParallel(1, ds.Groups, core.DefaultParams, 0)
	if err != nil {
		b.Fatal(err)
	}
	marg, err := query.BuildMarginalsFromGroups(published, 3)
	if err != nil {
		b.Fatal(err)
	}
	queries := len(ds.Pool.Queries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers := marg.AnswerBatch(ds.Pool.Queries, 0.5, 0)
		for j := range answers {
			if answers[j].Err != nil {
				b.Fatal(answers[j].Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(queries)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkChiMergeCensus times the Section 3.4 generalization alone on the
// 300K CENSUS (the dominant preprocessing cost).
func BenchmarkChiMergeCensus(b *testing.B) {
	raw, err := datagen.Census(benchCensusSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Generalize(&Table{t: raw}, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdPublish measures the end-to-end request-to-queryable cold
// path on CENSUS 300K — exactly what a cache-missing /publish or a /refresh
// pays after the raw table is loaded: chi-square generalization, grouping,
// SPS perturbation, and marginal indexing. Data generation is excluded (the
// server caches raw tables per source).
//
// "sequential" is the pre-fusion pipeline shape: materialize the
// generalized table, then group, publish, and index single-threaded.
// "parallel" is the fused cold path at GOMAXPROCS: one analysis scan, no
// materialized table (grouping maps values on the fly), sharded grouping,
// concurrent cube fill. Both produce bit-identical publications:
// TestAnalyzeMatchesGeneralizeWithoutTable pins the fused analysis to the
// materialized generalization, TestGroupsOfMappedMatchesRemapThenGroup the
// mapped grouping to remap-then-group, and TestPipelineWorkersBitIdentical
// the served publication across worker widths.
func BenchmarkColdPublish(b *testing.B) {
	raw, err := datagen.Census(benchCensusSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := chimerge.Generalize(raw, chimerge.DefaultSignificance)
			if err != nil {
				b.Fatal(err)
			}
			groups := dataset.GroupsOf(res.Table)
			pub, _, err := core.PublishSPSParallel(1, groups, core.DefaultParams, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := query.BuildMarginalsFromGroups(pub, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := chimerge.Analyze(raw, chimerge.DefaultSignificance, 0)
			if err != nil {
				b.Fatal(err)
			}
			groups, err := dataset.GroupsOfMapped(raw, res.Mappings, 0)
			if err != nil {
				b.Fatal(err)
			}
			pub, _, err := core.PublishSPSParallel(1, groups, core.DefaultParams, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := query.BuildMarginalsFromGroupsParallel(pub, 3, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
