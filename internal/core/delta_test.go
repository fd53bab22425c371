package core

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"time"

	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

// freshPQE evaluates both probabilistic pipelines with a from-scratch
// estimator at the database's current state.
func freshPQE(t *testing.T, q *cq.Query, h *pdb.Probabilistic, opts Options) (float64, float64) {
	t.Helper()
	tree, err := PQEEstimate(q, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	path, err := PathPQEEstimate(q, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree, path
}

// A reweight-only delta must take the rebind path: the automata and
// their incremental builders stay untouched, only the multiplier
// weightings rerun, and the re-weighted estimates are bit-identical to
// a fresh session at the new state. This pins the cheap path via
// BuildStats, the satellite-3 contract.
func TestEstimatorDeltaReweightRebinds(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 7}
	est := NewEstimator(q, h, opts)
	if _, err := est.PQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := est.PathPQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	base := est.BuildStats()

	sum, err := est.ApplyDelta(pdb.Delta{
		pdb.Reweight(pdb.NewFact("R1", "a", "b"), pdb.ProbFromRat(big.NewRat(9, 10))),
		pdb.Reweight(pdb.NewFact("R3", "d", "e"), pdb.ProbFromRat(big.NewRat(1, 7))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reweights != 2 || sum.Structural() {
		t.Fatalf("summary = %+v, want 2 non-structural reweights", sum)
	}

	gotTree, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	gotPath, err := est.PathPQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	freshTree, freshPath := freshPQE(t, q, h, opts)
	if gotTree != freshTree {
		t.Errorf("re-weighted tree estimate %v != fresh %v", gotTree, freshTree)
	}
	if gotPath != freshPath {
		t.Errorf("re-weighted path estimate %v != fresh %v", gotPath, freshPath)
	}

	st := est.BuildStats()
	want := base
	want.Weightings += 2 // one per pipeline; nothing else reruns
	if st != want {
		t.Errorf("BuildStats after reweight delta = %+v, want %+v", st, want)
	}
	if st.IncrementalUR != 0 || st.IncrementalPath != 0 {
		t.Errorf("reweight delta took the structural path: %+v", st)
	}
}

// A structural delta must take the incremental path — the next
// constructions are served by the cached builders (IncrementalUR /
// IncrementalPath grow) — and the estimates must be bit-identical to a
// from-scratch session at the same database version and seed.
func TestEstimatorDeltaStructuralIncremental(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 11}
	est := NewEstimator(q, h, opts)
	if _, err := est.PQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := est.PathPQEEstimate(opts); err != nil {
		t.Fatal(err)
	}

	deltas := []pdb.Delta{
		{pdb.Insert(pdb.NewFact("R2", "b", "e"), pdb.ProbFromRat(big.NewRat(2, 5)))},
		{pdb.Delete(pdb.NewFact("R1", "a", "c"))},
		{
			pdb.Delete(pdb.NewFact("R2", "b", "e")),
			pdb.Insert(pdb.NewFact("R3", "e", "g"), pdb.ProbFromRat(big.NewRat(1, 4))),
			pdb.Reweight(pdb.NewFact("R2", "b", "d"), pdb.ProbFromRat(big.NewRat(5, 6))),
		},
	}
	for i, delta := range deltas {
		if _, err := est.ApplyDelta(delta); err != nil {
			t.Fatalf("delta %d (%s): %v", i, delta, err)
		}
		gotTree, err := est.PQEEstimate(opts)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		gotPath, err := est.PathPQEEstimate(opts)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		freshTree, freshPath := freshPQE(t, q, h, opts)
		if gotTree != freshTree {
			t.Errorf("delta %d (%s): tree estimate %v != fresh %v", i, delta, gotTree, freshTree)
		}
		if gotPath != freshPath {
			t.Errorf("delta %d (%s): path estimate %v != fresh %v", i, delta, gotPath, freshPath)
		}
	}

	st := est.BuildStats()
	if st.IncrementalUR != len(deltas) || st.IncrementalPath != len(deltas) {
		t.Errorf("incremental counters = UR %d, path %d; want %d each (stats %+v)",
			st.IncrementalUR, st.IncrementalPath, len(deltas), st)
	}
	if st.Decompositions != 1 {
		t.Errorf("deltas re-ran the decomposition: %+v", st)
	}
	if want := 1 + len(deltas); st.URReductions != want || st.PathAutomata != want {
		t.Errorf("constructions = UR %d, path %d; want %d each", st.URReductions, st.PathAutomata, want)
	}
}

// Deleting the final fact and re-inserting it with its old probability
// restores the exact fact ordering, so the session's estimates must
// round-trip bit-identically to the pre-delta values — and take the
// incremental path both ways.
func TestEstimatorDeltaDeleteReinsertRoundTrip(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 13}
	est := NewEstimator(q, h, opts)
	beforeTree, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	beforePath, err := est.PathPQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}

	last := pdb.NewFact("R3", "d", "f") // last fact of pathInstance
	p := h.Prob(last)
	if _, err := est.ApplyDelta(pdb.Delta{pdb.Delete(last)}); err != nil {
		t.Fatal(err)
	}
	midTree, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if midTree == beforeTree {
		t.Fatalf("deleting %v did not change the estimate %v", last, beforeTree)
	}
	if _, err := est.ApplyDelta(pdb.Delta{pdb.Insert(last, p)}); err != nil {
		t.Fatal(err)
	}

	afterTree, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	afterPath, err := est.PathPQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if afterTree != beforeTree {
		t.Errorf("tree estimate did not round-trip: %v -> %v", beforeTree, afterTree)
	}
	if afterPath != beforePath {
		t.Errorf("path estimate did not round-trip: %v -> %v", beforePath, afterPath)
	}
	if st := est.BuildStats(); st.IncrementalUR != 2 {
		t.Errorf("round-trip did not stay on the incremental path: %+v", st)
	}
}

// Deltas entirely over relations the query does not mention invalidate
// nothing: the automata survive and only the 2^(|D|−|D'|) rescaling —
// which reads the live database size — changes the UR estimate.
func TestEstimatorDeltaForeignRelation(t *testing.T) {
	q := cq.PathQuery("R", 2)
	d := pdb.FromFacts(
		pdb.NewFact("R1", "a", "b"),
		pdb.NewFact("R2", "b", "c"),
		pdb.NewFact("S", "x", "y"),
	)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 17}
	est := NewUREstimator(q, d, opts)
	before, err := est.UREstimate(opts)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := est.ApplyDelta(pdb.Delta{pdb.Insert(pdb.NewFact("S", "x", "z"), pdb.Prob{})}); err != nil {
		t.Fatal(err)
	}
	after, err := est.UREstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := before.Mul(efloat.Pow2(1)); after != want {
		t.Errorf("foreign insert: estimate %v, want doubled %v", after, want)
	}
	fresh, err := NewUREstimator(q, d, opts).UREstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if after != fresh {
		t.Errorf("estimate after foreign delta %v != fresh session %v", after, fresh)
	}
	st := est.BuildStats()
	if st.URReductions != 1 || st.IncrementalUR != 0 {
		t.Errorf("foreign delta rebuilt the automaton: %+v", st)
	}
}

// A delta that fails validation must leave the database and every
// session cache untouched: the instance still answers with the old
// estimate and no construction stage reruns.
func TestEstimatorDeltaErrorLeavesSessionIntact(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 19}
	est := NewEstimator(q, h, opts)
	before, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	base := est.BuildStats()

	_, err = est.ApplyDelta(pdb.Delta{
		pdb.Insert(pdb.NewFact("R1", "z", "z"), pdb.ProbFromRat(big.NewRat(1, 2))),
		pdb.Delete(pdb.NewFact("R1", "no", "such")),
	})
	if err == nil {
		t.Fatal("invalid delta was accepted")
	}
	after, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("estimate drifted across a rejected delta: %v -> %v", before, after)
	}
	if st := est.BuildStats(); st != base {
		t.Errorf("rejected delta reran construction: %+v -> %+v", base, st)
	}
}

// Mutating the instance behind the session's back (not through
// ApplyDelta) must be detected by the version guard: the next estimate
// drops every cache, rebuilds from scratch, and matches a fresh
// session — never serves the stale automaton.
func TestEstimatorOutOfBandMutationRebuilds(t *testing.T) {
	q, h := pathInstance(t)
	opts := Options{Epsilon: 0.2, Trials: 3, Seed: 23}
	est := NewEstimator(q, h, opts)
	if _, err := est.PQEEstimate(opts); err != nil {
		t.Fatal(err)
	}

	h.Add(pdb.NewFact("R2", "c", "e"), pdb.ProbFromRat(big.NewRat(1, 3)))

	got, err := est.PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PQEEstimate(q, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Errorf("estimate after out-of-band mutation %v != fresh %v", got, fresh)
	}
	st := est.BuildStats()
	if st.URReductions != 2 || st.IncrementalUR != 0 {
		t.Errorf("out-of-band mutation was not a full rebuild: %+v", st)
	}
	if v := est.sc.Registry().Counter("pqe_estimator_rebuilds_total").Value(); v != 1 {
		t.Errorf("pqe_estimator_rebuilds_total = %d, want 1", v)
	}
}

// After an out-of-band mutation the exact route's read recomputes the
// projections and the route decision outside any construction stage;
// their time must land in the read's build phase. The instance carries
// many facts outside the query, so the projection is the bulk of the
// rebuild: the read's build phase must be at least half of a direct
// projection's best time.
func TestOutOfBandMutationBooksBuildPhase(t *testing.T) {
	q := cq.PathQuery("R", 2)
	h := pdb.Empty()
	h.Add(pdb.NewFact("R1", "a", "b"), pdb.ProbHalf)
	h.Add(pdb.NewFact("R2", "b", "c"), pdb.NewProb(1, 3))
	for i := 0; i < 20000; i++ {
		h.Add(pdb.NewFact("Z", fmt.Sprint(i)), pdb.ProbHalf)
	}
	est := NewEstimator(q, h, Options{})
	read := func() time.Duration {
		t.Helper()
		ph := obs.NewPhases()
		res, err := est.Evaluate(Options{Strategy: "auto", Obs: obs.NewScope(nil, obs.NewRegistry(), nil).WithPhases(ph)})
		if err != nil || !res.Exact {
			t.Fatalf("read: %v (exact %v)", err, res.Exact)
		}
		return ph.Duration(obs.PhaseBuild)
	}
	read()
	h.Add(pdb.NewFact("Z", "new"), pdb.ProbHalf)
	build := read()

	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		h.Project(q.RelationSet())
		best = min(best, time.Since(t0))
	}
	if build < best/2 {
		t.Errorf("post-mutation read booked %v of build, a projection alone takes %v", build, best)
	}
}
