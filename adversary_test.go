package reconpriv

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// publishedMedical publishes the medical fixture and returns the
// publication with the options used.
func publishedMedical(t *testing.T) (*Table, Options) {
	t.Helper()
	opt := DefaultOptions
	pub, _, err := Publish(medicalTable(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	return pub, opt
}

// adversarySubsets enumerates condition sets over the published domains:
// every single-attribute condition plus every Gender×Job pair — guaranteed
// in-vocabulary whatever the generalization merged.
func adversarySubsets(t *testing.T, pub *Table) []map[string]string {
	t.Helper()
	var subsets []map[string]string
	genders, err := pub.Domain("Gender")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := pub.Domain("Job")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range genders {
		subsets = append(subsets, map[string]string{"Gender": g})
		for _, j := range jobs {
			subsets = append(subsets, map[string]string{"Gender": g, "Job": j})
		}
	}
	for _, j := range jobs {
		subsets = append(subsets, map[string]string{"Job": j})
	}
	return subsets
}

func TestAdversaryBatchMatchesScan(t *testing.T) {
	// Batch-vs-scan equivalence at the public API: ReconstructBatch through
	// the marginal index must agree with per-call Reconstruct (the scan
	// reference) to 1e-12 on every subset, raw and clamped.
	pub, opt := publishedMedical(t)
	adv, err := NewAdversary(pub, opt.RetentionProbability)
	if err != nil {
		t.Fatal(err)
	}
	subsets := adversarySubsets(t, pub)
	for _, clamp := range []bool{false, true} {
		batch := adv.ReconstructBatch(subsets, clamp)
		if len(batch) != len(subsets) {
			t.Fatalf("batch answered %d of %d subsets", len(batch), len(subsets))
		}
		for i, conds := range subsets {
			var want map[string]float64
			var scanErr error
			if clamp {
				want, scanErr = ReconstructClamped(pub, conds, opt.RetentionProbability)
			} else {
				want, scanErr = Reconstruct(pub, conds, opt.RetentionProbability)
			}
			if scanErr != nil {
				// The scan path errors on empty subsets; the batch reports
				// Size 0 with no error instead.
				if batch[i].Err != nil || batch[i].Size != 0 {
					t.Fatalf("subset %v: scan errored (%v) but batch = %+v", conds, scanErr, batch[i])
				}
				continue
			}
			if batch[i].Err != nil {
				t.Fatalf("subset %v: batch error %v", conds, batch[i].Err)
			}
			if len(batch[i].Freqs) != len(want) {
				t.Fatalf("subset %v: label sets differ", conds)
			}
			for label, w := range want {
				if d := math.Abs(batch[i].Freqs[label] - w); d > 1e-12 {
					t.Fatalf("subset %v label %q: batch %v scan %v (clamp=%v)", conds, label, batch[i].Freqs[label], w, clamp)
				}
			}
		}
	}
}

func TestAdversaryEstimateCountMatchesScan(t *testing.T) {
	pub, opt := publishedMedical(t)
	adv, err := NewAdversary(pub, opt.RetentionProbability)
	if err != nil {
		t.Fatal(err)
	}
	diseases, err := pub.Domain("Disease")
	if err != nil {
		t.Fatal(err)
	}
	var qs []CountQuery
	for _, conds := range adversarySubsets(t, pub) {
		qs = append(qs, CountQuery{Conds: conds, SensitiveValue: diseases[len(qs)%len(diseases)]})
	}
	ests := adv.EstimateCountBatch(qs)
	for i, q := range qs {
		want, err := EstimateCount(pub, q.Conds, q.SensitiveValue, opt.RetentionProbability)
		if err != nil {
			t.Fatal(err)
		}
		if ests[i].Err != nil {
			t.Fatalf("query %d: %v", i, ests[i].Err)
		}
		if d := math.Abs(ests[i].Estimate - want); d > 1e-12 {
			t.Fatalf("query %d: batch %v scan %v", i, ests[i].Estimate, want)
		}
		// CountPairs takes Size as the ratio attack's x.
		size, err := Count(pub, q.Conds, "")
		if err != nil {
			t.Fatal(err)
		}
		if ests[i].Size != size {
			t.Fatalf("query %d: batch size %d, Count %d", i, ests[i].Size, size)
		}
	}
}

func TestAdversaryPerItemErrors(t *testing.T) {
	pub, opt := publishedMedical(t)
	adv, err := NewAdversary(pub, opt.RetentionProbability)
	if err != nil {
		t.Fatal(err)
	}
	genders, err := pub.Domain("Gender")
	if err != nil {
		t.Fatal(err)
	}
	batch := adv.ReconstructBatch([]map[string]string{
		{"Gender": genders[0]},
		{"Gender": "NotAGender"},
		{"NoSuchAttr": "x"},
		{"Disease": "Flu"}, // conditions may not reference the SA
	}, false)
	if batch[0].Err != nil || batch[0].Freqs == nil {
		t.Errorf("healthy subset failed: %+v", batch[0])
	}
	for _, i := range []int{1, 2, 3} {
		if batch[i].Err == nil {
			t.Errorf("subset %d should report an error", i)
		}
	}
	ests := adv.EstimateCountBatch([]CountQuery{
		{Conds: map[string]string{"Gender": genders[0]}, SensitiveValue: "Flu"},
		{Conds: map[string]string{"Gender": genders[0]}, SensitiveValue: "NotADisease"},
	})
	if ests[0].Err != nil {
		t.Errorf("healthy query failed: %v", ests[0].Err)
	}
	if ests[1].Err == nil {
		t.Error("bad sensitive value should report an error")
	}
}

func TestEstimateCountEmptySubset(t *testing.T) {
	// EstimateCount on an empty subset is 0 with no error on both paths.
	// The (Female, Doctor) pair never occurs, while every label occurs
	// somewhere, so the pair is a valid in-vocabulary empty subset.
	// Generalization is disabled so the pair cannot be merged away.
	csv := "Gender,Job,Disease\n" +
		"Male,Doctor,Flu\nMale,Doctor,HIV\nMale,Clerk,Flu\nMale,Clerk,Flu\n" +
		"Female,Clerk,HIV\nFemale,Clerk,Flu\nFemale,Clerk,HIV\nFemale,Clerk,Flu\n"
	tab, err := ReadCSV(strings.NewReader(csv), "Disease")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions
	opt.Significance = 0
	pub, _, err := Publish(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdversary(pub, opt.RetentionProbability)
	if err != nil {
		t.Fatal(err)
	}
	conds := map[string]string{"Gender": "Female", "Job": "Doctor"}
	if n, err := Count(pub, conds, ""); err != nil || n != 0 {
		t.Fatalf("fixture broken: Count = %d, %v; want empty subset", n, err)
	}
	est, err := EstimateCount(pub, conds, "Flu", opt.RetentionProbability)
	if err != nil || est != 0 {
		t.Errorf("scan EstimateCount on empty subset = %v, %v; want 0, nil", est, err)
	}
	batch := adv.EstimateCountBatch([]CountQuery{{Conds: conds, SensitiveValue: "Flu"}})
	if batch[0].Err != nil || batch[0].Estimate != 0 || batch[0].Size != 0 {
		t.Errorf("batch EstimateCount on empty subset = %+v; want zero, nil", batch[0])
	}
	rec := adv.ReconstructBatch([]map[string]string{conds}, false)
	if rec[0].Err != nil || rec[0].Size != 0 || rec[0].Freqs != nil {
		t.Errorf("batch Reconstruct on empty subset = %+v; want zero, nil", rec[0])
	}
	// The scan-path Reconstruct errors on the empty subset (its historical
	// contract); the batch reports Size 0 instead.
	if _, err := Reconstruct(pub, conds, opt.RetentionProbability); err == nil {
		t.Error("scan Reconstruct on empty subset should error")
	}
}

func TestReconstructClampedProperties(t *testing.T) {
	pub, opt := publishedMedical(t)
	for _, conds := range adversarySubsets(t, pub) {
		clamped, err := ReconstructClamped(pub, conds, opt.RetentionProbability)
		if err != nil {
			continue // empty subset
		}
		sum := 0.0
		for label, v := range clamped {
			if v < 0 {
				t.Fatalf("subset %v label %q: clamped entry negative", conds, label)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("subset %v: clamped freqs sum to %v", conds, sum)
		}
	}
	// The default Reconstruct stays the raw unbiased MLE: it must be able
	// to go negative somewhere on a small sample.
	small, err := SampleMedical(60, 2)
	if err != nil {
		t.Fatal(err)
	}
	smallPub, _, err := Publish(small, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	sawNegative := false
	for _, g := range []string{"Male", "Female"} {
		raw, err := Reconstruct(smallPub, map[string]string{"Gender": g}, DefaultOptions.RetentionProbability)
		if err != nil {
			continue
		}
		for _, v := range raw {
			if v < 0 {
				sawNegative = true
			}
		}
	}
	if !sawNegative {
		t.Log("note: no negative raw MLE entry on this draw; clamp default-difference untested")
	}
}

func TestNIRAttackSeedDeterminism(t *testing.T) {
	a, err := NIRAttack(0.5, 2, 423, 354, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NIRAttack(0.5, 2, 423, 354, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds should reproduce the attack exactly")
	}
	c, err := NIRAttack(0.5, 2, 423, 354, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfMean == c.ConfMean {
		t.Error("different seeds should draw different noise")
	}
}

func TestNIRAttackSweepFacade(t *testing.T) {
	epsilons := []float64{0.01, 0.1, 0.5}
	pairs := []CountPair{{X: 423, Y: 354}, {X: 40, Y: 10}}
	sweep, err := NIRAttackSweep(epsilons, pairs, 2, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != 6 {
		t.Fatalf("cells = %d", len(sweep.Cells))
	}
	again, err := NIRAttackSweep(epsilons, pairs, 2, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweep, again) {
		t.Error("equal seeds should reproduce the sweep exactly")
	}
	// Analytic columns: indicator shrinks as ε grows for a fixed pair, and
	// the true confidence is y/x everywhere.
	for j := range pairs {
		prev := math.Inf(1)
		for i := range epsilons {
			cell := sweep.Cells[i*len(pairs)+j]
			if cell.TrueConf != pairs[j].Y/pairs[j].X {
				t.Errorf("cell (%d,%d) true conf = %v", i, j, cell.TrueConf)
			}
			if cell.Indicator >= prev {
				t.Errorf("indicator should shrink with epsilon")
			}
			prev = cell.Indicator
		}
	}
	if _, err := NIRAttackSweep(nil, pairs, 2, 50, 1); err == nil {
		t.Error("empty epsilon grid should error")
	}
}

func TestNIRAttackSweepFromAdversary(t *testing.T) {
	// The full loop the docs advertise: estimate count pairs from a
	// publication with the batched engine, then sweep the DP ratio attack
	// over them.
	pub, opt := publishedMedical(t)
	adv, err := NewAdversary(pub, opt.RetentionProbability)
	if err != nil {
		t.Fatal(err)
	}
	genders, err := pub.Domain("Gender")
	if err != nil {
		t.Fatal(err)
	}
	qs := []CountQuery{
		{Conds: map[string]string{"Gender": genders[0]}, SensitiveValue: "Flu"},
		{Conds: map[string]string{"Gender": genders[1]}, SensitiveValue: "HIV"},
	}
	pairs, err := adv.CountPairs(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		if pr.X <= 0 {
			t.Fatalf("pair %d has x = %v", i, pr.X)
		}
	}
	sweep, err := NIRAttackSweep([]float64{0.1, 0.5}, pairs, 2, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != 4 {
		t.Fatalf("cells = %d", len(sweep.Cells))
	}
	// A query that matches nothing cannot feed the ratio attack.
	if _, err := adv.CountPairs([]CountQuery{{Conds: map[string]string{"Gender": "NotAGender"}, SensitiveValue: "Flu"}}); err == nil {
		t.Error("unresolvable pair should error")
	}
}
