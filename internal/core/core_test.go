package core

import (
	"errors"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/gen"
	"pqe/internal/pdb"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		q    string
		sjf  bool
		safe bool
		path bool
	}{
		{"R(x,y), S(x,z)", true, true, false},
		{"R1(x1,x2), R2(x2,x3), R3(x3,x4)", true, false, true},
		// A self-join chain is still a path query syntactically; the
		// self-join-freeness condition is tracked separately.
		{"R(x,y), R(y,z)", false, false, true},
		{"R(x), S(x,y), T(y)", true, false, false},
	}
	for _, c := range cases {
		got := Classify(cq.MustParse(c.q), 0)
		if got.SelfJoinFree != c.sjf || got.Safe != c.safe || got.Path != c.path {
			t.Errorf("Classify(%s) = %+v", c.q, got)
		}
		if !got.BoundedHW || got.Width < 1 {
			t.Errorf("Classify(%s): expected a decomposition, got %+v", c.q, got)
		}
	}
}

func TestPathEstimateAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(2)
		q := cq.PathQuery("R", n)
		h := gen.SparsePathInstance(q, 1+rng.Intn(2), 1, gen.ProbHalf, int64(trial+1))
		d := h.DB()
		want := exact.MustUR(q, d)
		got, err := PathEstimate(q, d, Options{Epsilon: 0.1, Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if want.Sign() == 0 {
			if !got.IsZero() {
				t.Errorf("trial %d: UR 0, estimate %v", trial, got)
			}
			continue
		}
		wantF, _ := new(big.Float).SetInt(want).Float64()
		ratio := got.Float() / wantF
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("trial %d: estimate %v vs UR %v", trial, got, want)
		}
	}
}

func TestPathEstimateScalesForeignFacts(t *testing.T) {
	q := cq.PathQuery("R", 2)
	d := pdb.FromFacts(
		pdb.NewFact("R1", "a", "b"),
		pdb.NewFact("R2", "b", "c"),
		pdb.NewFact("Zed", "q", "r"), // outside the query
	)
	got, err := PathEstimate(q, d, Options{Epsilon: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := exact.MustUR(q, d) // = 2: core chain, Zed free
	wantF, _ := new(big.Float).SetInt(want).Float64()
	ratio := got.Float() / wantF
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("estimate %v vs UR %v", got, want)
	}
}

func TestUREstimateAgainstBruteForce(t *testing.T) {
	queries := []*cq.Query{
		cq.PathQuery("R", 3),
		cq.StarQuery("R", 2),
		cq.CycleQuery("C", 3),
	}
	for trial, q := range queries {
		h := gen.Instance(q, gen.Config{FactsPerRelation: 2, DomainSize: 3, Seed: int64(trial + 7)})
		d := h.DB()
		want := exact.MustUR(q, d)
		got, err := UREstimate(q, d, Options{Epsilon: 0.1, Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if want.Sign() == 0 {
			if !got.IsZero() {
				t.Errorf("%s: UR 0, estimate %v", q, got)
			}
			continue
		}
		wantF, _ := new(big.Float).SetInt(want).Float64()
		ratio := got.Float() / wantF
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s: estimate %v vs UR %v (ratio %.3f)", q, got, want, ratio)
		}
	}
}

func TestPQEEstimateAgainstBruteForce(t *testing.T) {
	queries := []*cq.Query{
		cq.PathQuery("R", 2),
		cq.PathQuery("R", 3),
	}
	for trial, q := range queries {
		h := gen.Instance(q, gen.Config{
			FactsPerRelation: 2, DomainSize: 3,
			Model: gen.ProbRandomRational, Seed: int64(trial + 13),
		})
		want, _ := exact.MustPQE(q, h).Float64()
		got, err := PQEEstimate(q, h, Options{Epsilon: 0.1, Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			if got != 0 {
				t.Errorf("%s: exact 0, estimate %v", q, got)
			}
			continue
		}
		ratio := got / want
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s: estimate %v vs exact %v (ratio %.3f)", q, got, want, ratio)
		}
	}
}

func TestEvaluateRoutesSafeToExact(t *testing.T) {
	q := cq.StarQuery("R", 2)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 3, DomainSize: 3, Model: gen.ProbRandomRational, Seed: 2})
	res, err := Evaluate(q, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Method != MethodSafePlan {
		t.Errorf("safe query routed to %v (exact=%v)", res.Method, res.Exact)
	}
	want, _ := exact.MustPQE(q, h).Float64()
	if diff := res.Probability - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("probability %v, want %v", res.Probability, want)
	}
}

func TestEvaluateRoutesUnsafeToFPRAS(t *testing.T) {
	// Non-hierarchical, so #P-hard, and 10 facts per relation put the
	// witness bound (1000) past the exact-lineage route: the zero
	// Options route it to the path FPRAS. The exact answer comes from
	// lineage WMC.
	q := cq.PathQuery("R", 3)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 13})
	res, err := Evaluate(q, h, Options{Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Method != MethodFPRASPath {
		t.Errorf("unsafe query routed to %v", res.Method)
	}
	ex, err := Evaluate(q, h, Options{Strategy: "force-obdd"})
	if err != nil {
		t.Fatal(err)
	}
	if want := ex.Probability; want > 0 {
		ratio := res.Probability / want
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("probability %v, want ≈ %v", res.Probability, want)
		}
	}
}

func TestEvaluateForceFPRAS(t *testing.T) {
	q := cq.StarQuery("R", 2)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 2, DomainSize: 3, Seed: 4})
	res, err := Evaluate(q, h, Options{Epsilon: 0.1, Seed: 1, Strategy: "force-nfta"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodFPRASTree {
		t.Errorf("force-nfta routed the safe query to %v", res.Method)
	}
}

func TestEvaluateRejectsSelfJoins(t *testing.T) {
	q := cq.MustParse("R(x,y), R(y,z)")
	h := pdb.Empty()
	h.Add(pdb.NewFact("R", "a", "b"), pdb.ProbHalf)
	// The tree FPRAS refuses the self-join (the router's auto rule would
	// answer this tiny instance exactly through its lineage).
	_, err := Evaluate(q, h, Options{Strategy: "force-nfta"})
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestPathEstimateRejectsNonPath(t *testing.T) {
	if _, err := PathEstimate(cq.StarQuery("R", 2), pdb.NewDatabase(), Options{}); err == nil {
		t.Error("non-path accepted")
	}
}

func TestPathPQEEstimateAgainstBruteForce(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		n := 2 + trial%2
		q := cq.PathQuery("R", n)
		h := gen.SparsePathInstance(q, 2, 1, gen.ProbRandomRational, int64(trial+21))
		want, _ := exact.MustPQE(q, h).Float64()
		got, err := PathPQEEstimate(q, h, Options{Epsilon: 0.1, Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			if got != 0 {
				t.Errorf("trial %d: exact 0, estimate %v", trial, got)
			}
			continue
		}
		ratio := got / want
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("trial %d: estimate %v vs exact %v (ratio %.3f)", trial, got, want, ratio)
		}
	}
}

func TestPathPQEMatchesTreePipeline(t *testing.T) {
	q := cq.PathQuery("R", 3)
	h := gen.SparsePathInstance(q, 2, 1, gen.ProbRandomRational, 31)
	tree, err := PQEEstimate(q, h, Options{Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	str, err := PathPQEEstimate(q, h, Options{Epsilon: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree == 0 || str == 0 {
		t.Fatalf("degenerate instance: tree=%v string=%v", tree, str)
	}
	if r := str / tree; r < 0.75 || r > 1.25 {
		t.Errorf("pipelines disagree: tree=%v string=%v", tree, str)
	}
}

func TestPathPQEEstimateRejectsNonPath(t *testing.T) {
	h := gen.Instance(cq.StarQuery("R", 2), gen.Config{Seed: 1})
	if _, err := PathPQEEstimate(cq.StarQuery("R", 2), h, Options{}); err == nil {
		t.Error("non-path accepted")
	}
}

func TestPQEEstimateH0Query(t *testing.T) {
	// H₀ = R(x), S(x,y), T(y): the canonical #P-hard query of the
	// Dalvi–Suciu dichotomy, with mixed arities (unary + binary).
	q := cq.MustParse("R(x), S(x,y), T(y)")
	h := pdb.Empty()
	h.Add(pdb.NewFact("R", "a"), pdb.NewProb(1, 2))
	h.Add(pdb.NewFact("R", "b"), pdb.NewProb(2, 3))
	h.Add(pdb.NewFact("S", "a", "u"), pdb.NewProb(3, 4))
	h.Add(pdb.NewFact("S", "b", "v"), pdb.NewProb(1, 3))
	h.Add(pdb.NewFact("S", "a", "v"), pdb.NewProb(1, 2))
	h.Add(pdb.NewFact("T", "u"), pdb.NewProb(4, 5))
	h.Add(pdb.NewFact("T", "v"), pdb.NewProb(1, 5))
	want, _ := exact.MustPQE(q, h).Float64()
	got, err := PQEEstimate(q, h, Options{Epsilon: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("degenerate H0 instance")
	}
	if r := got / want; r < 0.8 || r > 1.2 {
		t.Errorf("H0 estimate %v vs exact %v", got, want)
	}
}

func TestUREstimateZeroAryAtom(t *testing.T) {
	// 0-ary atoms are degenerate but legal: Flag() either holds or not.
	q := cq.MustParse("Flag(), R(x)")
	d := pdb.FromFacts(
		pdb.NewFact("Flag"),
		pdb.NewFact("R", "a"),
		pdb.NewFact("R", "b"),
	)
	want := exact.MustUR(q, d) // Flag present AND ≥1 R fact: 1 × 3 = 3
	got, err := UREstimate(q, d, Options{Epsilon: 0.1, Seed: 2})
	if err != nil {
		t.Fatalf("0-ary atom rejected: %v", err)
	}
	wantF, _ := new(big.Float).SetInt(want).Float64()
	if r := got.Float() / wantF; r < 0.8 || r > 1.2 {
		t.Errorf("estimate %v vs UR %v", got, want)
	}
}

func TestPQEEstimateWideAtom(t *testing.T) {
	// Ternary atoms exercise non-binary schema support end to end.
	q := cq.MustParse("R(x,y,z), S(z)")
	h := pdb.Empty()
	h.Add(pdb.NewFact("R", "a", "b", "c"), pdb.NewProb(1, 2))
	h.Add(pdb.NewFact("R", "a", "a", "d"), pdb.NewProb(1, 3))
	h.Add(pdb.NewFact("S", "c"), pdb.NewProb(2, 3))
	h.Add(pdb.NewFact("S", "d"), pdb.NewProb(1, 4))
	want, _ := exact.MustPQE(q, h).Float64()
	got, err := PQEEstimate(q, h, Options{Epsilon: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r := got / want; r < 0.8 || r > 1.2 {
		t.Errorf("estimate %v vs exact %v", got, want)
	}
}

func TestUREstimateRepeatedVariableAtom(t *testing.T) {
	// R(x,x) forces loop facts only.
	q := cq.MustParse("R(x,x), S(x)")
	d := pdb.FromFacts(
		pdb.NewFact("R", "a", "a"),
		pdb.NewFact("R", "a", "b"), // not a loop: cannot witness
		pdb.NewFact("S", "a"),
	)
	want := exact.MustUR(q, d) // R(a,a) and S(a) present, R(a,b) free: 2
	got, err := UREstimate(q, d, Options{Epsilon: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantF, _ := new(big.Float).SetInt(want).Float64()
	if r := got.Float() / wantF; r < 0.8 || r > 1.2 {
		t.Errorf("estimate %v vs UR %v", got, want)
	}
}

func TestUREstimateFourCycleWidthTwo(t *testing.T) {
	q := cq.CycleQuery("C", 4)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 2, DomainSize: 2, Seed: 11})
	d := h.DB()
	want := exact.MustUR(q, d)
	got, err := UREstimate(q, d, Options{Epsilon: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want.Sign() == 0 {
		if !got.IsZero() {
			t.Errorf("UR 0, estimate %v", got)
		}
		return
	}
	wantF, _ := new(big.Float).SetInt(want).Float64()
	if r := got.Float() / wantF; r < 0.75 || r > 1.25 {
		t.Errorf("estimate %v vs UR %v", got, want)
	}
}

func TestExplainSafeRoute(t *testing.T) {
	q := cq.StarQuery("S", 2)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 2, DomainSize: 2, Seed: 1})
	r, err := Explain(q, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Route != MethodSafePlan {
		t.Errorf("route = %v", r.Route)
	}
	if s := r.String(); !strings.Contains(s, "safe=true") || !strings.Contains(s, "no automaton") {
		t.Errorf("report: %s", s)
	}
}

func TestExplainFPRASRoute(t *testing.T) {
	q := cq.PathQuery("R", 3)
	h := gen.SparsePathInstance(q, 2, 1, gen.ProbRandomRational, 2)
	r, err := Explain(q, h, Options{Strategy: "force-nfta"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Route != MethodFPRASTree {
		t.Errorf("route = %v", r.Route)
	}
	if r.AutoStates == 0 || r.FinalTransitions == 0 || r.TreeSize != h.Size() {
		t.Errorf("report incomplete: %+v", r)
	}
	// Rational probabilities: the gadgets the weights stand in for would
	// add digit nodes.
	if r.DigitNodes <= 0 {
		t.Errorf("digit accounting wrong: %+v", r)
	}
	s := r.String()
	for _, want := range []string{"decomposition:", "weighted NFTA", "counted tree size"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestExplainUnsupported(t *testing.T) {
	// A self-join whose lineage is too large for the exact route: the
	// router has no engine for it.
	q := cq.MustParse("R(x,y), R(y,z)")
	h := pdb.Empty()
	for i := 0; i < 40; i++ {
		h.Add(pdb.NewFact("R", string(rune('a'+i)), string(rune('b'+i))), pdb.ProbHalf)
	}
	if _, err := Explain(q, h, Options{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v", err)
	}
}

func TestUREstimateGridQueryWidthTwo(t *testing.T) {
	// A 2×3 grid of variables with one relation per edge (7 atoms):
	// cyclic, ghw 2 — a heavier det-k-decomp + Proposition 1 stress
	// test than the triangle.
	//
	//  a - b - c
	//  |   |   |
	//  d - e - f
	q := cq.MustParse("H1(a,b), H2(b,c), H3(d,e), H4(e,f), V1(a,d), V2(b,e), V3(c,f)")
	class := Classify(q, 0)
	if !class.BoundedHW || class.Width > 2 {
		t.Fatalf("grid classified %+v", class)
	}
	// A database containing one grid plus a distractor edge.
	h := pdb.Empty()
	for _, f := range []struct {
		rel  string
		a, b string
	}{
		{"H1", "1", "2"}, {"H2", "2", "3"}, {"H3", "4", "5"}, {"H4", "5", "6"},
		{"V1", "1", "4"}, {"V2", "2", "5"}, {"V3", "3", "6"},
		{"H1", "9", "8"},
	} {
		h.Add(pdb.NewFact(f.rel, f.a, f.b), pdb.ProbHalf)
	}
	d := h.DB()
	want := exact.MustUR(q, d)
	got, err := UREstimate(q, d, Options{Epsilon: 0.1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantF, _ := new(big.Float).SetInt(want).Float64()
	if r := got.Float() / wantF; r < 0.8 || r > 1.2 {
		t.Errorf("grid estimate %v vs UR %v", got, want)
	}
}

func TestPQEEstimateSnowflake(t *testing.T) {
	// A 2-arm depth-1 snowflake: the smallest analytics-shaped query.
	q := cq.SnowflakeQuery("S", 2, 1)
	h := pdb.Empty()
	h.Add(pdb.NewFact("SC", "a", "b"), pdb.NewProb(3, 4))
	h.Add(pdb.NewFact("SC", "a", "c"), pdb.NewProb(1, 2))
	h.Add(pdb.NewFact("SD1_1", "a", "d1"), pdb.NewProb(2, 3))
	h.Add(pdb.NewFact("SD2_1", "b", "d2"), pdb.NewProb(1, 2))
	h.Add(pdb.NewFact("SD2_1", "c", "d2"), pdb.NewProb(1, 3))
	want, _ := exact.MustPQE(q, h).Float64()
	got, err := PQEEstimate(q, h, Options{Epsilon: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("degenerate snowflake instance")
	}
	if r := got / want; r < 0.8 || r > 1.2 {
		t.Errorf("snowflake estimate %v vs exact %v", got, want)
	}
}

func TestUREstimateTwoTrianglesSharedVertex(t *testing.T) {
	// Width-2 decomposition with genuine branching: two triangles glued
	// at x exercise multi-child consistency in the Proposition 1
	// construction.
	q := cq.MustParse("A1(x,y), A2(y,z), A3(z,x), B1(x,u), B2(u,v), B3(v,x)")
	h := pdb.Empty()
	for _, f := range []struct {
		rel  string
		a, b string
	}{
		{"A1", "p", "q"}, {"A2", "q", "r"}, {"A3", "r", "p"},
		{"B1", "p", "s"}, {"B2", "s", "t"}, {"B3", "t", "p"},
		{"A1", "p", "w"}, // distractor
	} {
		h.Add(pdb.NewFact(f.rel, f.a, f.b), pdb.ProbHalf)
	}
	d := h.DB()
	want := exact.MustUR(q, d)
	got, err := UREstimate(q, d, Options{Epsilon: 0.1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	wantF, _ := new(big.Float).SetInt(want).Float64()
	if r := got.Float() / wantF; r < 0.8 || r > 1.2 {
		t.Errorf("estimate %v vs UR %v", got, want)
	}
}

func TestUREstimateForeignFactScaling(t *testing.T) {
	// Tree-pipeline analogue of the PathEstimate foreign-fact test:
	// UR(Q, D ⊎ {k foreign facts}) = UR(Q, D) · 2^k.
	q := cq.StarQuery("S", 2)
	base := pdb.FromFacts(
		pdb.NewFact("S1", "h", "a"),
		pdb.NewFact("S2", "h", "b"),
	)
	withForeign := base.Clone()
	withForeign.Add(pdb.NewFact("Zed", "1"))
	withForeign.Add(pdb.NewFact("Zed", "2"))
	withForeign.Add(pdb.NewFact("Zed", "3"))

	got, err := UREstimate(q, withForeign, Options{Epsilon: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := exact.MustUR(q, withForeign) // = 1 · 2^3 = 8
	wantF, _ := new(big.Float).SetInt(want).Float64()
	if r := got.Float() / wantF; r < 0.85 || r > 1.15 {
		t.Errorf("estimate %v vs UR %v", got, want)
	}
}
