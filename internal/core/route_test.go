package core

import (
	"errors"
	"math"
	"testing"

	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/gen"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

func TestRoutedSafeQuery(t *testing.T) {
	q := cq.StarQuery("R", 2)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 3, DomainSize: 3, Model: gen.ProbRandomRational, Seed: 2})
	res, err := Evaluate(q, h, Options{Seed: 1, Strategy: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Method != MethodSafePlan {
		t.Errorf("safe query routed to %v (exact=%v)", res.Method, res.Exact)
	}
	if res.Reason == "" {
		t.Error("routed result missing reason")
	}
}

func TestRoutedSmallLineageMatchesBruteForce(t *testing.T) {
	q := cq.PathQuery("R", 3)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 2, DomainSize: 3, Seed: 3})
	res, err := Evaluate(q, h, Options{Epsilon: 0.1, Seed: 1, Strategy: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Method != MethodOBDD {
		t.Errorf("small instance routed to %v (exact=%v), want obdd exact", res.Method, res.Exact)
	}
	want, _ := exact.MustPQE(q, h).Float64()
	if math.Abs(res.Probability-want) > 1e-12 {
		t.Errorf("probability %v, want exactly %v", res.Probability, want)
	}
}

func TestRoutedLargePathGoesToStringEngine(t *testing.T) {
	q := cq.PathQuery("R", 3)
	// 10 facts per relation → witness bound 1000 > 512: FPRAS territory.
	h := gen.Instance(q, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 5})
	res, err := Evaluate(q, h, Options{Epsilon: 0.1, Seed: 1, Strategy: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Method != MethodFPRASPath {
		t.Errorf("large path instance routed to %v, want path-NFA FPRAS", res.Method)
	}
	// 30 facts rule out the 2^|D| brute force; the exact lineage WMC is
	// the oracle instead (witness count is small even though the witness
	// bound exceeds the routing threshold).
	oracle, err := Evaluate(q, h, Options{Seed: 1, Strategy: "force-lineage"})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Probability > 0 {
		ratio := res.Probability / oracle.Probability
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("probability %v, want ≈ %v", res.Probability, oracle.Probability)
		}
	}
}

func TestRoutedForcedStrategies(t *testing.T) {
	q := cq.PathQuery("R", 3)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 2, DomainSize: 3, Seed: 3})
	want, _ := exact.MustPQE(q, h).Float64()
	cases := []struct {
		strategy string
		method   Method
		exact    bool
	}{
		{"force-obdd", MethodOBDD, true},
		{"force-lineage", MethodLineage, true},
		{"force-nfta", MethodFPRASTree, false},
		{"force-nfa", MethodFPRASPath, false},
		{"force-montecarlo", MethodMonteCarlo, false},
	}
	for _, c := range cases {
		res, err := Evaluate(q, h, Options{Epsilon: 0.1, Seed: 1, Strategy: c.strategy})
		if err != nil {
			t.Fatalf("%s: %v", c.strategy, err)
		}
		if res.Method != c.method || res.Exact != c.exact {
			t.Errorf("%s routed to %v (exact=%v)", c.strategy, res.Method, res.Exact)
		}
		if c.exact {
			if math.Abs(res.Probability-want) > 1e-12 {
				t.Errorf("%s: probability %v, want exactly %v", c.strategy, res.Probability, want)
			}
		} else if want > 0 {
			ratio := res.Probability / want
			if ratio < 0.6 || ratio > 1.7 {
				t.Errorf("%s: probability %v, want ≈ %v", c.strategy, res.Probability, want)
			}
		}
	}
	if _, err := Evaluate(q, h, Options{Strategy: "force-warp"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	// Forcing the safe plan on an unsafe query must error, not silently
	// fall back.
	if _, err := Evaluate(q, h, Options{Strategy: "force-safeplan"}); err == nil {
		t.Error("force-safeplan on an unsafe query succeeded")
	}
}

func TestRoutedRejectsOpenCells(t *testing.T) {
	// A self-join over a database too large for the lineage route.
	q := cq.MustParse("R(x,y), R(y,z)")
	h := pdb.Empty()
	for i := 0; i < 40; i++ {
		h.Add(pdb.NewFact("R", string(rune('a'+i)), string(rune('b'+i))), pdb.ProbHalf)
	}
	_, err := Evaluate(q, h, Options{Strategy: "auto"})
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestRoutedSelfJoinSmallLineageIsExact(t *testing.T) {
	// Self-joins are an open cell for the FPRAS, but a small instance is
	// still exactly solvable through the lineage — the router recovers
	// what the tree FPRAS (force-nfta) rejects.
	q := cq.MustParse("R(x,y), R(y,z)")
	h := pdb.Empty()
	h.Add(pdb.NewFact("R", "a", "b"), pdb.ProbHalf)
	h.Add(pdb.NewFact("R", "b", "c"), pdb.ProbHalf)
	res, err := Evaluate(q, h, Options{Strategy: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("small self-join not exact: %+v", res)
	}
	want, _ := exact.MustPQE(q, h).Float64()
	if math.Abs(res.Probability-want) > 1e-12 {
		t.Errorf("probability %v, want exactly %v", res.Probability, want)
	}
}

func TestRoutedDeterministicAcrossMaxProcs(t *testing.T) {
	q := cq.PathQuery("R", 3)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 5})
	base, err := Evaluate(q, h, Options{Epsilon: 0.1, Seed: 9, Strategy: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4, 8} {
		got, err := Evaluate(q, h, Options{Epsilon: 0.1, Seed: 9, Strategy: "auto", MaxProcs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if got.Probability != base.Probability || got.Method != base.Method {
			t.Errorf("MaxProcs=%d: %v via %v, want %v via %v",
				procs, got.Probability, got.Method, base.Probability, base.Method)
		}
	}
}

func TestRoutedDispatchCounters(t *testing.T) {
	q := cq.PathQuery("R", 3)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 5})
	reg := obs.NewRegistry()
	sc := obs.NewScope(nil, reg, nil)
	if _, err := Evaluate(q, h, Options{Epsilon: 0.1, Seed: 1, Strategy: "auto", Obs: sc}); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("router_dispatch_total").Value(); v != 1 {
		t.Errorf("router_dispatch_total = %d, want 1", v)
	}
	if v := reg.Counter("router_dispatch_nfa_total").Value(); v != 1 {
		t.Errorf("router_dispatch_nfa_total = %d, want 1", v)
	}
	// Sequential stopping is on under strategy routing; the saved-trial
	// attribution must agree with the engine's own counter.
	saved := reg.Counter("router_trials_saved_total").Value()
	engineSaved := reg.Counter("countnfa_trials_saved_total").Value() +
		reg.Counter("countnfta_trials_saved_total").Value()
	if saved != engineSaved {
		t.Errorf("router_trials_saved_total = %d, engines saved %d", saved, engineSaved)
	}
}

func TestRoutedDecisionMemoizedAndInvalidated(t *testing.T) {
	q := cq.PathQuery("R", 3)
	h := pdb.Empty()
	h.Add(pdb.NewFact("R1", "a", "b"), pdb.ProbHalf)
	h.Add(pdb.NewFact("R2", "b", "c"), pdb.ProbHalf)
	h.Add(pdb.NewFact("R3", "c", "d"), pdb.ProbHalf)
	e := NewEstimator(q, h, Options{Strategy: "auto"})
	res, err := e.Evaluate(Options{Strategy: "auto", Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodOBDD {
		t.Fatalf("tiny instance routed to %v, want obdd", res.Method)
	}
	if !e.routeDec.done {
		t.Fatal("decision not memoized")
	}
	// Growing the instance past the lineage threshold must re-route: the
	// structural delta drops the memoized decision.
	var delta pdb.Delta
	for i := 0; i < 30; i++ {
		a := "x" + string(rune('a'+i))
		b := "y" + string(rune('a'+i))
		delta = append(delta,
			pdb.DeltaOp{Kind: pdb.DeltaInsert, Fact: pdb.NewFact("R1", a, b), Prob: pdb.ProbHalf},
			pdb.DeltaOp{Kind: pdb.DeltaInsert, Fact: pdb.NewFact("R2", b, a), Prob: pdb.ProbHalf},
		)
	}
	if _, err := e.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if e.routeDec.done {
		t.Fatal("structural delta did not drop the memoized decision")
	}
	res, err = e.Evaluate(Options{Strategy: "auto", Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodFPRASPath {
		t.Errorf("grown instance routed to %v, want path-NFA FPRAS", res.Method)
	}
}

// A routed Evaluate runs the anytime schedule however its strategy
// was resolved: set on the session, set on the call, or left empty
// (which means "auto"). The three calls must agree bit for bit and in
// the trials the engines ran, and the anytime certificate must fire
// before the 15-trial cap.
func TestSessionStrategyRunsAnytimeSchedule(t *testing.T) {
	for _, sh := range goldenShapes()[:2] { // path3-half, triangle-half
		call := Options{Epsilon: 0.3, Trials: 15, Seed: 1, MaxProcs: 1}
		run := func(session, perCall string) (uint64, int64) {
			reg := obs.NewRegistry()
			o := call
			o.Strategy = perCall
			o.Obs = obs.NewScope(nil, reg, nil)
			res, err := NewEstimator(sh.q, sh.h, Options{Strategy: session}).Evaluate(o)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			trials := reg.Counter("countnfta_trials_total").Value() + reg.Counter("countnfa_trials_total").Value()
			return math.Float64bits(res.Probability), trials
		}
		sessBits, sessTrials := run("auto", "")
		callBits, callTrials := run("", "auto")
		zeroBits, zeroTrials := run("", "")
		if sessBits != callBits || zeroBits != callBits {
			t.Errorf("%s: bits session %#x, per-call %#x, zero Strategy %#x; want all equal",
				sh.name, sessBits, callBits, zeroBits)
		}
		if sessTrials != callTrials || zeroTrials != callTrials {
			t.Errorf("%s: trials session %d, per-call %d, zero Strategy %d; want all equal",
				sh.name, sessTrials, callTrials, zeroTrials)
		}
		if callTrials >= int64(call.Trials) {
			t.Errorf("%s: routed call ran %d trials, want the anytime schedule to stop before %d",
				sh.name, callTrials, call.Trials)
		}
	}
}
