package core

import (
	"math"
	"math/big"
	"testing"

	"pqe/internal/cq"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

// pathInstance builds a 3-path query and a small probabilistic database
// on which it is unsafe (so the FPRAS route is exercised).
func pathInstance(t *testing.T) (*cq.Query, *pdb.Probabilistic) {
	t.Helper()
	q := cq.PathQuery("R", 3)
	h := pdb.Empty()
	add := func(rel, a, b string, num, den int64) {
		h.Add(pdb.NewFact(rel, a, b), pdb.ProbFromRat(big.NewRat(num, den)))
	}
	add("R1", "a", "b", 1, 2)
	add("R1", "a", "c", 2, 3)
	add("R2", "b", "d", 3, 4)
	add("R2", "c", "d", 1, 3)
	add("R3", "d", "e", 4, 5)
	add("R3", "d", "f", 1, 2)
	return q, h
}

// The cache-hit contract: repeated evaluations on one Estimator run
// every construction stage exactly once.
func TestEstimatorCachesConstruction(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 5}
	est := NewEstimator(q, h, opts)

	first, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := est.PQEEstimate(opts)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Errorf("re-evaluation drifted: %v vs %v", again, first)
		}
	}
	if _, err := est.PathPQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := est.PathPQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := est.PathEstimate(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := est.Evaluate(Options{Epsilon: 0.2, Trials: 3, Seed: 5, Strategy: "force-nfta"}); err != nil {
		t.Fatal(err)
	}

	st := est.BuildStats()
	want := BuildStats{Decompositions: 1, URReductions: 1, PathAutomata: 1, Weightings: 2}
	if st != want {
		t.Errorf("BuildStats = %+v, want %+v", st, want)
	}
}

// SetProbabilities must invalidate only the weightings: the cached
// decomposition and base automata survive, and the re-weighted estimate
// matches a from-scratch estimator on the new instance.
func TestEstimatorSetProbabilitiesReweightsOnly(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 5}
	est := NewEstimator(q, h, opts)
	if _, err := est.PQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := est.PathPQEEstimate(opts); err != nil {
		t.Fatal(err)
	}

	h2 := h.WithProb(pdb.NewFact("R1", "a", "b"), pdb.ProbFromRat(big.NewRat(9, 10)))
	if err := est.SetProbabilities(h2); err != nil {
		t.Fatal(err)
	}
	got, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PQEEstimate(q, h2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Errorf("re-weighted estimate %v != fresh estimator %v", got, fresh)
	}
	gotPath, err := est.PathPQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	freshPath, err := PathPQEEstimate(q, h2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotPath-freshPath) > 1e-12 {
		t.Errorf("re-weighted path estimate %v != fresh %v", gotPath, freshPath)
	}

	st := est.BuildStats()
	want := BuildStats{Decompositions: 1, URReductions: 1, PathAutomata: 1, Weightings: 4}
	if st != want {
		t.Errorf("BuildStats after SetProbabilities = %+v, want %+v", st, want)
	}
}

// SetProbabilities with a changed fact set must rebuild the
// database-keyed caches, not rebind probabilities onto stale automata.
// BuildStats is the witness: URReductions and PathAutomata run again,
// while the query-keyed decomposition survives.
func TestEstimatorSetProbabilitiesRebuildsOnChangedFacts(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 5}
	est := NewEstimator(q, h, opts)
	if _, err := est.PQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := est.PathPQEEstimate(opts); err != nil {
		t.Fatal(err)
	}

	// Grow the fact set: one extra R3 edge changes the automata.
	h2 := h.WithProb(pdb.NewFact("R1", "a", "b"), pdb.ProbHalf)
	h2.Add(pdb.NewFact("R3", "d", "g"), pdb.ProbFromRat(big.NewRat(1, 4)))
	if err := est.SetProbabilities(h2); err != nil {
		t.Fatal(err)
	}
	got, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PQEEstimate(q, h2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Errorf("rebuilt estimate %v != fresh estimator %v", got, fresh)
	}
	gotPath, err := est.PathPQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	freshPath, err := PathPQEEstimate(q, h2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotPath != freshPath {
		t.Errorf("rebuilt path estimate %v != fresh %v", gotPath, freshPath)
	}

	st := est.BuildStats()
	want := BuildStats{Decompositions: 1, URReductions: 2, PathAutomata: 2, Weightings: 4}
	if st != want {
		t.Errorf("BuildStats after changed-fact rebuild = %+v, want %+v", st, want)
	}
}

// A permutation of the same fact set must also rebuild: the automaton
// constructions encode the fact ordering (the paper's ≺ᵢ), so automata
// built over one ordering are invalid for another.
func TestEstimatorSetProbabilitiesRebuildsOnReorderedFacts(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 5}
	est := NewEstimator(q, h, opts)
	if _, err := est.PQEEstimate(opts); err != nil {
		t.Fatal(err)
	}

	// Same facts and probabilities, reversed insertion order.
	facts := h.DB().Facts()
	rev := pdb.Empty()
	for i := len(facts) - 1; i >= 0; i-- {
		rev.Add(facts[i], h.ProbAt(i))
	}
	if err := est.SetProbabilities(rev); err != nil {
		t.Fatal(err)
	}
	got, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PQEEstimate(q, rev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Errorf("reordered estimate %v != fresh estimator %v", got, fresh)
	}
	st := est.BuildStats()
	if st.URReductions != 2 {
		t.Errorf("URReductions = %d after reorder, want 2 (rebuild)", st.URReductions)
	}
	if st.Decompositions != 1 {
		t.Errorf("Decompositions = %d after reorder, want 1 (query-keyed cache survives)", st.Decompositions)
	}
}

// An identical fact set in the identical order stays a rebind even when
// passed through a fresh pdb value: no probability-independent stage
// reruns.
func TestEstimatorSetProbabilitiesSameFactsStaysRebind(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 5}
	est := NewEstimator(q, h, opts)
	if _, err := est.PQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	copyH := pdb.Empty()
	for i, f := range h.DB().Facts() {
		copyH.Add(f, h.ProbAt(i))
	}
	if err := est.SetProbabilities(copyH); err != nil {
		t.Fatal(err)
	}
	if _, err := est.PQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	st := est.BuildStats()
	want := BuildStats{Decompositions: 1, URReductions: 1, Weightings: 2}
	if st != want {
		t.Errorf("BuildStats after same-fact rebind = %+v, want %+v", st, want)
	}
}

// The one-shot wrappers must agree with a session estimator given the
// same options (they are the same code path).
func TestEstimatorMatchesOneShot(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 11}
	est := NewEstimator(q, h, opts)
	a, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PQEEstimate(q, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("session %v != one-shot %v", a, b)
	}
	ur1, err := est.UREstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	ur2, err := UREstimate(q, h.DB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ur1.Cmp(ur2) != 0 {
		t.Errorf("session UR %v != one-shot %v", ur1, ur2)
	}
	p1, err := est.PathEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PathEstimate(q, h.DB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cmp(p2) != 0 {
		t.Errorf("session path UR %v != one-shot %v", p1, p2)
	}
}

func TestUREstimatorRejectsProbabilityMethods(t *testing.T) {
	q, h := pathInstance(t)
	est := NewUREstimator(q, h.DB(), Options{})
	if _, err := est.PQEEstimate(Options{}); err == nil {
		t.Error("PQEEstimate on a UR-only estimator did not error")
	}
	if err := est.SetProbabilities(h); err == nil {
		t.Error("SetProbabilities on a UR-only estimator did not error")
	}
}

// Build spans belong to the call that ran the build: a session built
// with telemetry S and called with telemetry T traces every stage in T
// and none in S, while the stage counters stay on the session registry.
func TestBuildSpansGoToCallScope(t *testing.T) {
	q, h := pathInstance(t)
	sessTr, callTr := obs.NewTracer(), obs.NewTracer()
	est := NewEstimator(q, h, Options{Obs: obs.NewScope(sessTr, obs.NewRegistry(), nil)})
	ph := obs.NewPhases()
	call := Options{Epsilon: 0.2, Trials: 3, Seed: 5, Obs: obs.NewScope(callTr, obs.NewRegistry(), nil).WithPhases(ph)}
	plain := NewEstimator(q, h, Options{})
	for _, e := range []*Estimator{est, plain} {
		o := call
		if e == plain {
			o.Obs = nil
		}
		if _, err := e.PQEEstimate(o); err != nil {
			t.Fatal(err)
		}
		if _, err := e.PathPQEEstimate(o); err != nil {
			t.Fatal(err)
		}
	}

	if roots := sessTr.Roots(); len(roots) != 0 {
		t.Errorf("session trace holds %d root spans, want none (first %s)", len(roots), roots[0].Name())
	}
	names := map[string]bool{}
	for _, r := range callTr.Roots() {
		names[r.Name()] = true
	}
	for _, want := range []string{"pqe.decompose", "pqe.build_ur", "pqe.weight_ur", "pqe.build_path_nfa", "pqe.weight_path"} {
		if !names[want] {
			t.Errorf("call trace lacks the %s span (roots %v)", want, names)
		}
	}
	if ph.Build() != "full" || ph.Seconds()["build"] <= 0 {
		t.Errorf("call phases: build kind %q, %v s; want full and positive", ph.Build(), ph.Seconds()["build"])
	}
	want := BuildStats{Decompositions: 1, URReductions: 1, PathAutomata: 1, Weightings: 2}
	if got := est.BuildStats(); got != want || plain.BuildStats() != want {
		t.Errorf("BuildStats = %+v with a call scope, %+v without; want %+v", got, plain.BuildStats(), want)
	}
}
