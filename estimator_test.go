package pqe

import (
	"math/big"
	"testing"
)

func TestEstimatorPublicAPI(t *testing.T) {
	q := PathQuery("R", 3)
	d := smallPathDB(t)
	opts := &Options{Epsilon: 0.2, Trials: 3, Seed: 7}
	est := NewEstimator(q, d, opts)

	// Pin the tree FPRAS: on an instance this small the router answers
	// exactly from the lineage, and this check compares sampled answers.
	forced := &Options{Epsilon: 0.2, Trials: 3, Seed: 7, Strategy: "force-nfta"}
	res, err := est.Probability(forced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatalf("force-nfta answered exactly (%s): want a sampled estimate", res.Method)
	}
	oneShot, err := Probability(q, d, forced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability != oneShot.Probability {
		t.Errorf("session %v != one-shot %v", res.Probability, oneShot.Probability)
	}
	if _, err := est.Estimate(nil); err != nil {
		t.Fatal(err)
	}
	ur, err := est.UniformReliability(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ur.Sign() <= 0 {
		t.Errorf("UR = %v, want > 0", ur)
	}
	if _, err := est.Explain(nil); err != nil {
		t.Fatal(err)
	}
	w, err := est.SampleWorld(&Options{Epsilon: 0.2, Trials: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if w == nil || len(w.Present) != d.Size() {
		t.Fatalf("SampleWorld mask: %+v", w)
	}
	if _, err := est.SampleSatisfyingSubinstance(nil); err != nil {
		t.Fatal(err)
	}

	st := est.BuildStats()
	if st.Decompositions != 1 || st.URReductions != 1 || st.PathAutomata != 1 {
		t.Errorf("construction stages reran: %+v", st)
	}

	// Re-weight: same facts, new probability.
	d2 := smallPathDB(t)
	if err := d2.AddFact("R1", big.NewRat(9, 10), "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := est.SetProbabilities(d2); err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Estimate(q, d2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Errorf("re-weighted %v != fresh %v", got, fresh)
	}
	st = est.BuildStats()
	if st.Decompositions != 1 || st.URReductions != 1 || st.PathAutomata != 1 {
		t.Errorf("SetProbabilities invalidated construction stages: %+v", st)
	}

	// A different fact set rebuilds the database-keyed stages and still
	// matches a fresh estimator.
	d3 := smallPathDB(t)
	if err := d3.AddFact("R3", big.NewRat(1, 4), "d", "g"); err != nil {
		t.Fatal(err)
	}
	if err := est.SetProbabilities(d3); err != nil {
		t.Fatal(err)
	}
	got, err = est.Estimate(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err = Estimate(q, d3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Errorf("rebuilt session %v != fresh %v", got, fresh)
	}
	st = est.BuildStats()
	if st.URReductions != 2 {
		t.Errorf("URReductions = %d after changed facts, want 2 (rebuild)", st.URReductions)
	}
	if st.Decompositions != 1 {
		t.Errorf("Decompositions = %d, want 1 (query-keyed cache survives)", st.Decompositions)
	}
}
