package sim

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/reconpriv/reconpriv/internal/bounds"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/serve"
)

// TestSimScenarios is the tier-1 simulation gate: every built-in scenario
// runs at small scale under a fixed seed, must finish with zero invariant
// violations, and must produce byte-identical summaries on a second run —
// the reproducibility contract rpsim relies on — that also match the
// committed golden (testdata/<scenario>.golden.json, rpsim's stdout for
// `go run ./cmd/rpsim -scenario <name> -seed 1 -clients 4 -steps 6`), so a
// change that moves any summary byte shows up here. The churn scenario doubles
// as the concurrency stressor: N clients race inserts and queries against
// /refresh rebuilds, which is what the CI -race job leans on.
func TestSimScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			run := func() *Result {
				res, err := Run(Options{Scenario: sc, Seed: 1, Clients: 4, Steps: 6})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first := run()
			for _, f := range first.Summary.Invariants.Failures {
				t.Errorf("invariant violated: %s", f)
			}
			if v := first.Summary.Invariants.Violations; v != 0 {
				t.Fatalf("%d invariant violations", v)
			}
			if first.Summary.Invariants.Checks == 0 {
				t.Fatal("no invariant checks ran")
			}
			wantOps := int64(4 * 6)
			ops := first.Summary.Ops
			if got := ops.Query + ops.Insert + ops.Refresh + ops.Reconstruct + ops.Audit; got != wantOps {
				t.Fatalf("issued %d ops, want %d", got, wantOps)
			}
			if sc.DeterministicAnswers() && first.Summary.AnswersDigest == "" {
				t.Error("read-only scenario produced no answers digest")
			}

			a, err := first.SummaryJSON()
			if err != nil {
				t.Fatal(err)
			}
			b, err := run().SummaryJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("summaries differ between identically-seeded runs:\n%s\n---\n%s", a, b)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", sc.Name+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			if got := append(a, '\n'); !bytes.Equal(got, golden) {
				t.Errorf("summary differs from testdata/%s.golden.json (regenerate with go run ./cmd/rpsim -scenario %s -seed 1 -clients 4 -steps 6):\n%s\n--- golden:\n%s",
					sc.Name, sc.Name, got, golden)
			}
		})
	}
}

// TestScenarioValidation pins the scenario sanity rules.
func TestScenarioValidation(t *testing.T) {
	if _, err := Lookup("steady-read"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("unknown scenario should not resolve")
	}
	sc, _ := Lookup("steady-read")
	sc.Mix = Mix{}
	if _, err := Run(Options{Scenario: sc, Seed: 1}); err == nil {
		t.Error("empty mix should be rejected")
	}
	sc, _ = Lookup("steady-read")
	sc.Mix.Insert = 1
	if _, err := Run(Options{Scenario: sc, Seed: 1}); err == nil {
		t.Error("inserts into a non-incremental publication should be rejected")
	}
	sc, _ = Lookup("churn")
	sc.CheckBernstein = true
	if _, err := Run(Options{Scenario: sc, Seed: 1}); err == nil {
		t.Error("Bernstein invariant on a non-up method should be rejected")
	}
	sc, _ = Lookup("budget")
	sc.Mix.Insert = 1
	sc.Publish.Method = serve.MethodIncremental
	if _, err := Run(Options{Scenario: sc, Seed: 1}); err == nil {
		t.Error("budget scenario with mutations should be rejected")
	}
	sc, _ = Lookup("budget")
	sc.Budget.ZipfS = 1
	if _, err := Run(Options{Scenario: sc, Seed: 1}); err == nil {
		t.Error("budget scenario with ZipfS <= 1 should be rejected")
	}
	// The Bernstein envelope's raw groups come from the reference server,
	// so it runs on a fleet too.
	sc, _ = Lookup("adversary")
	sc.Fleet = &FleetPlan{}
	res, err := Run(Options{Scenario: sc, Seed: 1, Clients: 4, Steps: 6})
	if err != nil {
		t.Fatalf("Bernstein-checked scenario on a fleet: %v", err)
	}
	if v := res.Summary.Invariants.Violations; v != 0 {
		t.Errorf("Bernstein-checked scenario on a fleet: %d violations: %v", v, res.Summary.Invariants.Failures)
	}
}

// TestBudgetScenarioRejects pins that the budget scenario at its default
// scale actually exhausts quotas: both rejection kinds fire, the heaviest
// identity lands exactly on the quota boundary or below, and the run stays
// violation-free — the zipf head is rejected, never overcharged.
func TestBudgetScenarioRejects(t *testing.T) {
	sc, err := Lookup("budget")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Summary.Invariants.Failures {
		t.Errorf("invariant violated: %s", f)
	}
	if v := res.Summary.Invariants.Violations; v != 0 {
		t.Fatalf("%d invariant violations", v)
	}
	b := res.Summary.Budget
	if b == nil {
		t.Fatal("budget scenario produced no budget summary")
	}
	if b.RejectedClientQuota == 0 {
		t.Error("no client-quota rejections; the scenario must exhaust the zipf head's budget")
	}
	if b.RejectedDegraded == 0 {
		t.Error("no degraded rejections; the scenario must shed reconstructs past the soft threshold")
	}
	if b.AcceptedBatches == 0 {
		t.Error("no accepted batches")
	}
	if b.MaxIdentityCharged > b.Quota {
		t.Errorf("heaviest identity charged %d past quota %d", b.MaxIdentityCharged, b.Quota)
	}
}

// TestBernsteinOmegaInvertsBound checks the closed-form inversion against
// the internal/bounds implementation it is derived from: the solved ω must
// land exactly on the requested tail probability.
func TestBernsteinOmegaInvertsBound(t *testing.T) {
	b := bounds.Bernstein{}
	for _, mu := range []float64{0.5, 3, 47, 1200, 9e5} {
		for _, eps := range []float64{1e-3, 1e-6, 1e-9} {
			omega := BernsteinOmega(mu, eps)
			if got := b.Upper(omega, mu, 0); math.Abs(got-eps) > eps*1e-6 {
				t.Errorf("Upper(ω(µ=%g, eps=%g)) = %g, want %g", mu, eps, got, eps)
			}
			// Slightly smaller ω must overshoot eps: ω is the smallest root.
			if got := b.Upper(omega*0.999, mu, 0); got <= eps {
				t.Errorf("ω(µ=%g, eps=%g) is not minimal: Upper at 0.999ω = %g", mu, eps, got)
			}
		}
	}
	if !math.IsInf(BernsteinOmega(0, 1e-9), 1) {
		t.Error("µ = 0 should yield an infinite (vacuous) envelope")
	}
}

// TestRawSubsetCounts pins the ground-truth scan against a hand-built
// group set.
func TestRawSubsetCounts(t *testing.T) {
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "A", Values: []string{"a0", "a1"}},
		{Name: "B", Values: []string{"b0", "b1", "b2"}},
		{Name: "S", Values: []string{"s0", "s1"}},
	}, "S")
	tbl := dataset.NewTable(schema, 6)
	tbl.MustAppendRow(0, 0, 0)
	tbl.MustAppendRow(0, 0, 1)
	tbl.MustAppendRow(0, 1, 0)
	tbl.MustAppendRow(1, 0, 1)
	tbl.MustAppendRow(1, 2, 0)
	tbl.MustAppendRow(1, 2, 1)
	gs := dataset.GroupsOf(tbl)

	counts, size := rawSubsetCounts(gs, []query.Cond{{Attr: 0, Value: 0}})
	if size != 3 || counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("A=a0: size %d counts %v, want 3 [2 1]", size, counts)
	}
	counts, size = rawSubsetCounts(gs, []query.Cond{{Attr: 0, Value: 1}, {Attr: 1, Value: 2}})
	if size != 2 || counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("A=a1∧B=b2: size %d counts %v, want 2 [1 1]", size, counts)
	}
	if _, size := rawSubsetCounts(gs, []query.Cond{{Attr: 1, Value: 1}}); size != 1 {
		t.Fatalf("B=b1: size %d, want 1", size)
	}
}

// TestClientSeedsDistinct guards the stream derivation: nearby run seeds
// and client indices must never collide (SplitMix64 finalizer bijectivity).
func TestClientSeedsDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 8; seed++ {
		for idx := 0; idx < 64; idx++ {
			s := clientSeed(seed, idx)
			if seen[s] {
				t.Fatalf("duplicate client seed %d at run seed %d client %d", s, seed, idx)
			}
			seen[s] = true
		}
	}
}

// TestMixedEncodingDigestMatchesJSON is the end-to-end cross-encoding pin:
// the default run alternates JSON and binary query batches (the alternation
// consumes no randomness, so both runs draw the same workload), and the
// XOR-folded answers digest must come out identical — every count and
// estimate served over the binary framing carried exactly the bits the
// JSON encoding carries. Checked on the single-server and the routed
// (fleet) topology. It also pins that the target is transparent to
// answers: steady-read through a default fleet draws the same workload as
// on one server, and the router must hand back the same answers.
func TestMixedEncodingDigestMatchesJSON(t *testing.T) {
	run := func(sc Scenario, forceJSON bool) string {
		t.Helper()
		res, err := Run(Options{Scenario: sc, Seed: 3, Clients: 3, Steps: 4, forceJSON: forceJSON})
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Summary.Invariants.Violations; v != 0 {
			t.Fatalf("%s: %d invariant violations: %v", sc.Name, v, res.Summary.Invariants.Failures)
		}
		if res.Summary.AnswersDigest == "" {
			t.Fatalf("%s: run produced no digest", sc.Name)
		}
		return res.Summary.AnswersDigest
	}
	for _, name := range []string{"steady-read", "fleet"} {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if mixed, jsonOnly := run(sc, false), run(sc, true); mixed != jsonOnly {
			t.Fatalf("%s: mixed-encoding digest %s differs from all-JSON digest %s", name, mixed, jsonOnly)
		}
	}
	sc, err := Lookup("steady-read")
	if err != nil {
		t.Fatal(err)
	}
	one := run(sc, false)
	sc.Fleet = &FleetPlan{}
	if routed := run(sc, false); routed != one {
		t.Fatalf("steady-read digest %s through a fleet, %s on one server", routed, one)
	}
}
