package experiments

import (
	"math"
	"strings"
	"testing"
)

// The experiment tests use a small CENSUS size to keep the suite fast; the
// full sizes are exercised by cmd/rpbench and the top-level benchmarks.
const testCensusSize = 100000

func TestRunTable1ReproducesDisclosure(t *testing.T) {
	res, err := RunTable1(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ans1 != 501 || res.Ans2 != 420 {
		t.Fatalf("true answers %d/%d, want 501/420", res.Ans1, res.Ans2)
	}
	if math.Abs(res.Conf-0.8383) > 0.001 {
		t.Errorf("Conf = %v, want 0.8383", res.Conf)
	}
	if len(res.Columns) != 3 {
		t.Fatalf("columns = %d", len(res.Columns))
	}
	// The Table 1 claim: at eps=0.5 the estimate is within ~1% of the truth
	// with small SE, while at eps=0.01 the SE is orders of magnitude larger.
	weak := res.Columns[0]   // eps = 0.01
	strong := res.Columns[2] // eps = 0.5
	if math.Abs(strong.Conf.Mean-res.Conf) > 0.02 {
		t.Errorf("eps=0.5 Conf' = %v, want within 2%% of %v", strong.Conf.Mean, res.Conf)
	}
	if strong.Conf.StdErr > 0.05 {
		t.Errorf("eps=0.5 SE = %v, want small", strong.Conf.StdErr)
	}
	if weak.Conf.StdErr < 5*strong.Conf.StdErr {
		t.Errorf("eps=0.01 SE (%v) should dwarf eps=0.5 SE (%v)", weak.Conf.StdErr, strong.Conf.StdErr)
	}
	if !strings.Contains(res.String(), "Conf'") {
		t.Error("rendering should include the Conf' row")
	}
}

func TestRunTable2ExactValues(t *testing.T) {
	res := RunTable2()
	// The paper's Table 2, row b=20: 0.000032, 0.0008, 0.0032, 0.02, 0.08.
	want := []float64{0.000032, 0.0008, 0.0032, 0.02, 0.08}
	for i, v := range res.Values[1] {
		if math.Abs(v-want[i]) > 1e-9 {
			t.Errorf("b=20 x=%v: %v, want %v", res.Answers[i], v, want[i])
		}
	}
	if !strings.Contains(res.String(), "b=200") {
		t.Error("rendering should include the b=200 row")
	}
}

func TestRunTable4MatchesPaper(t *testing.T) {
	res, err := RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	wantAfter := map[string]int{"Education": 7, "Occupation": 4, "Race": 2, "Gender": 2}
	for _, a := range res.Attrs {
		if want := wantAfter[a.Name]; a.After != want {
			t.Errorf("%s after = %d, want %d", a.Name, a.After, want)
		}
	}
	if res.GroupsBefore != 2240 || res.GroupsAfter != 112 {
		t.Errorf("|G| = %d -> %d, want 2240 -> 112", res.GroupsBefore, res.GroupsAfter)
	}
	if math.Abs(res.AvgBefore-20) > 1 || math.Abs(res.AvgAfter-404) > 5 {
		t.Errorf("|D|/|G| = %.0f -> %.0f, want 20 -> 404", res.AvgBefore, res.AvgAfter)
	}
}

func TestRunTable5MatchesPaperShape(t *testing.T) {
	res, err := RunTable5(testCensusSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Attrs {
		switch a.Name {
		case "Age":
			if a.After != 1 {
				t.Errorf("Age should merge 77 -> 1, got %d", a.After)
			}
		default:
			if a.After != a.Before {
				t.Errorf("%s should be unchanged (%d -> %d)", a.Name, a.Before, a.After)
			}
		}
	}
	if res.GroupsAfter != 1512 {
		t.Errorf("|G| after = %d, want 1512", res.GroupsAfter)
	}
}

func TestRunFig1Shapes(t *testing.T) {
	for _, panel := range []string{"ADULT", "CENSUS"} {
		res, err := RunFig1(panel)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Series) != 3 {
			t.Fatalf("series = %d", len(res.Series))
		}
		for si, s := range res.Series {
			// s_g decreases in f along each curve.
			for i := 1; i < len(s.SG); i++ {
				if s.SG[i] >= s.SG[i-1] {
					t.Errorf("%s p=%v: s_g not decreasing at f=%v", panel, s.P, s.F[i])
				}
			}
			// And decreases in p across curves (at equal f).
			if si > 0 {
				prev := res.Series[si-1]
				for i := range s.SG {
					if s.SG[i] >= prev.SG[i] {
						t.Errorf("%s f=%v: s_g should shrink as p grows", panel, s.F[i])
					}
				}
			}
		}
	}
	if _, err := RunFig1("NOPE"); err == nil {
		t.Error("unknown panel should error")
	}
}

func TestViolationSweepAdultShapes(t *testing.T) {
	for _, v := range []SweepVar{SweepP, SweepLambda, SweepDelta} {
		sweep, err := RunViolationSweep(true, v, testCensusSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(sweep.Points) != 5 {
			t.Fatalf("points = %d", len(sweep.Points))
		}
		// Violations are monotone non-decreasing along every sweep
		// (Section 4.3: larger p, λ, δ shrink s_g).
		for i := 1; i < len(sweep.Points); i++ {
			if sweep.Points[i].VG < sweep.Points[i-1].VG-1e-9 {
				t.Errorf("%s: vg not monotone at %v", v, sweep.Points[i].X)
			}
		}
		// v_r ≥ v_g pointwise: violating groups are the larger ones.
		for _, pt := range sweep.Points {
			if pt.VR < pt.VG-1e-9 {
				t.Errorf("%s: vr (%v) < vg (%v)", v, pt.VR, pt.VG)
			}
		}
	}
}

func TestViolationSweepAdultDefaultsMatchPaper(t *testing.T) {
	sweep, err := RunViolationSweep(true, SweepP, testCensusSize)
	if err != nil {
		t.Fatal(err)
	}
	// p = 0.5 is index 2; the paper reports vg ≈ 85%, vr > 99%.
	def := sweep.Points[2]
	if def.VG < 0.7 || def.VG > 0.95 {
		t.Errorf("default vg = %v, want in the paper's ~0.85 regime", def.VG)
	}
	if def.VR < 0.9 {
		t.Errorf("default vr = %v, want >0.9 (paper: >0.99)", def.VR)
	}
}

func TestViolationSweepCensusShape(t *testing.T) {
	sweep, err := RunViolationSweep(false, SweepP, testCensusSize)
	if err != nil {
		t.Fatal(err)
	}
	def := sweep.Points[2]
	// CENSUS: small vg, much larger vr (few large groups violate).
	if def.VG > 0.1 {
		t.Errorf("census vg = %v, want small", def.VG)
	}
	if def.VR < 5*def.VG {
		t.Errorf("census vr (%v) should dwarf vg (%v)", def.VR, def.VG)
	}
}

func TestViolationSweepSizeRejectsAdult(t *testing.T) {
	if _, err := RunViolationSweep(true, SweepSize, testCensusSize); err == nil {
		t.Error("size sweep on ADULT should error")
	}
	if _, err := RunViolationSweep(true, SweepVar("bogus"), testCensusSize); err == nil {
		t.Error("unknown sweep variable should error")
	}
}

func TestErrorSweepAdult(t *testing.T) {
	sweep, err := RunErrorSweep(true, SweepLambda, testCensusSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range sweep.Points {
		// SPS pays a utility cost relative to UP that grows with λ
		// (more sampling); UP is flat in λ.
		if pt.SPS.Mean < pt.UP.Mean-0.01 {
			t.Errorf("λ=%v: SPS (%v) materially below UP (%v)", pt.X, pt.SPS.Mean, pt.UP.Mean)
		}
		if i > 0 {
			prev := sweep.Points[i-1]
			if math.Abs(pt.UP.Mean-prev.UP.Mean) > 0.01 {
				t.Errorf("UP error should be ~flat in λ, moved %v -> %v", prev.UP.Mean, pt.UP.Mean)
			}
		}
	}
	if !strings.Contains(sweep.String(), "SPS/UP") {
		t.Error("rendering should include the ratio column")
	}
	if _, err := RunErrorSweep(true, SweepLambda, testCensusSize, 0); err == nil {
		t.Error("0 runs should error")
	}
	if _, err := RunErrorSweep(true, SweepSize, testCensusSize, 1); err == nil {
		t.Error("size sweep on ADULT should error")
	}
}

func TestErrorSweepUPDecreasesInP(t *testing.T) {
	sweep, err := RunErrorSweep(true, SweepP, testCensusSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sweep.Points); i++ {
		if sweep.Points[i].UP.Mean >= sweep.Points[i-1].UP.Mean {
			t.Errorf("UP error should fall as p grows: %v -> %v at p=%v",
				sweep.Points[i-1].UP.Mean, sweep.Points[i].UP.Mean, sweep.Points[i].X)
		}
	}
}

func TestBoundsAblation(t *testing.T) {
	res, err := RunBoundsAblation(testCensusSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]BoundsAblationRow{}
	for _, r := range res.Rows {
		byName[r.Bound] = r
	}
	// Markov certifies nothing.
	if byName["markov"].AdultVG != 0 {
		t.Error("markov should find no violations")
	}
	// Chernoff's s_g at the ADULT operating point matches Eq. 10 (~119).
	if math.Abs(byName["chernoff"].SGAdult-119) > 3 {
		t.Errorf("chernoff sg = %v, want ~119", byName["chernoff"].SGAdult)
	}
	if !strings.Contains(res.String(), "chernoff") {
		t.Error("rendering should list the bounds")
	}
}

func TestEstimatorAblation(t *testing.T) {
	res, err := RunEstimatorAblation(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if math.Abs(row.MLE-row.Matrix) > 1e-9 {
			t.Errorf("|S|=%d: MLE and matrix MLE must coincide", row.Size)
		}
		// The tolerance is loose in absolute terms but far below any
		// meaningful L1 difference: EM's accelerated fixed point stops at a
		// finite iteration budget, so it can sit a few 1e-9 above the
		// closed-form MLE it converges to.
		if row.EM > row.MLE+1e-6 {
			t.Errorf("|S|=%d: EM (%v) should not be worse than raw MLE (%v)", row.Size, row.EM, row.MLE)
		}
	}
	// Errors shrink with subset size (the law of large numbers, i.e. the
	// mechanism behind the Split Role Principle).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].MLE >= res.Rows[i-1].MLE {
			t.Errorf("MLE error should fall with |S|")
		}
	}
}

func TestReducePAblation(t *testing.T) {
	res, err := RunReducePAblation(true, testCensusSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReducedP >= res.OriginalP {
		t.Errorf("reduced p = %v should be below %v", res.ReducedP, res.OriginalP)
	}
	// The paper's Section 5 argument: reduce-p costs far more utility than SPS.
	if res.ReduceP.Mean <= res.SPSError.Mean {
		t.Errorf("reduce-p error (%v) should exceed SPS error (%v)", res.ReduceP.Mean, res.SPSError.Mean)
	}
	if !strings.Contains(res.String(), "reduced-p") {
		t.Error("rendering should include the reduced-p row")
	}
}

func TestRunAudit(t *testing.T) {
	res, err := RunAudit(true, testCensusSize, 300, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UP.Groups) != 5 || len(res.SPS.Groups) != 5 {
		t.Fatalf("audited %d/%d groups", len(res.UP.Groups), len(res.SPS.Groups))
	}
	if v := res.UP.BoundViolations(0.03); v != 0 {
		t.Errorf("%d UP groups exceeded their Chernoff bounds", v)
	}
	// SPS must lift the tails of violating groups above the UP level.
	for i := range res.UP.Groups {
		if !res.UP.Groups[i].Violating {
			continue
		}
		upTail := res.UP.Groups[i].UpperEmp + res.UP.Groups[i].LowerEmp
		spsTail := res.SPS.Groups[i].UpperEmp + res.SPS.Groups[i].LowerEmp
		if spsTail < upTail {
			t.Errorf("group %d: SPS tail %v below UP tail %v", i, spsTail, upTail)
		}
	}
	if !strings.Contains(res.String(), "Chernoff") {
		t.Error("rendering incomplete")
	}
}

func TestRunOutputVsData(t *testing.T) {
	res, err := RunOutputVsData(true, testCensusSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DP) != len(OutputVsDataEpsilons) {
		t.Fatalf("DP rows = %d", len(res.DP))
	}
	// DP error shrinks as ε grows (less noise) — the utility side of the
	// Section 2 trade-off.
	for i := 1; i < len(res.DP); i++ {
		if res.DP[i].DPError.Mean >= res.DP[i-1].DPError.Mean {
			t.Errorf("DP error should fall with ε: %v -> %v",
				res.DP[i-1].DPError.Mean, res.DP[i].DPError.Mean)
		}
	}
	if res.SPSError.Mean < res.UPError.Mean-0.01 {
		t.Error("SPS should not beat UP materially")
	}
	if !strings.Contains(res.String(), "ratio attack") {
		t.Error("rendering incomplete")
	}
	if _, err := RunOutputVsData(true, testCensusSize, 0); err == nil {
		t.Error("0 runs should error")
	}
}

func TestDatasetCaching(t *testing.T) {
	a, err := AdultData()
	if err != nil {
		t.Fatal(err)
	}
	b, err := AdultData()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("AdultData should be cached")
	}
	c1, err := CensusData(testCensusSize)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CensusData(testCensusSize)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("CensusData should be cached per size")
	}
}

func TestPoolHasPaperWorkloadShape(t *testing.T) {
	ds, err := AdultData()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Pool.Queries) != 5000 {
		t.Fatalf("pool size = %d, want 5000", len(ds.Pool.Queries))
	}
	seenDim := map[int]bool{}
	for _, q := range ds.Pool.Queries {
		seenDim[len(q.Conds)] = true
	}
	for d := 1; d <= 3; d++ {
		if !seenDim[d] {
			t.Errorf("no queries of dimensionality %d", d)
		}
	}
}

func TestRunBudgetBench(t *testing.T) {
	res, err := RunBudgetBench(60000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("swept %d cells, want 6", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.MemoryMiB >= 64 {
			t.Errorf("cell %dx%.1f: %f MiB", c.Clients, c.ZipfS, c.MemoryMiB)
		}
		if c.Rejected == 0 {
			t.Errorf("cell %dx%.1f: zipf head never exhausted its quota", c.Clients, c.ZipfS)
		}
		if c.RejectionPrecision < 0.999 {
			t.Errorf("cell %dx%.1f: rejection precision %f", c.Clients, c.ZipfS, c.RejectionPrecision)
		}
	}
	cal := res.Calibration
	if cal.ClosedFormMargin <= 1 || cal.StableMargin <= 1 {
		t.Errorf("adversary breaches within quota: closed-form %fx, stable %fx", cal.ClosedFormMargin, cal.StableMargin)
	}
	if cal.ResidualErrorAtQuota < 0.5 {
		t.Errorf("attacker already within rounding distance (%f records) at the quota cutoff", cal.ResidualErrorAtQuota)
	}
	if !strings.Contains(res.String(), "quota calibration") {
		t.Error("rendering incomplete")
	}
}
