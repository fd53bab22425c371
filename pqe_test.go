package pqe

import (
	"errors"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smallPathDB(t *testing.T) *Database {
	t.Helper()
	d := NewDatabase()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.AddFact("R1", big.NewRat(1, 2), "a", "b"))
	must(d.AddFact("R1", big.NewRat(1, 2), "a", "c"))
	must(d.AddFact("R2", big.NewRat(1, 2), "b", "d"))
	must(d.AddFact("R2", big.NewRat(2, 3), "c", "d"))
	must(d.AddFact("R3", big.NewRat(3, 4), "d", "e"))
	return d
}

func TestQueryAccessors(t *testing.T) {
	q := MustParseQuery("R(x,y), S(y,z)")
	if q.Len() != 2 || !q.SelfJoinFree() {
		t.Error("accessors wrong")
	}
	if !PathQuery("R", 3).IsPath() {
		t.Error("PathQuery not a path")
	}
	if !StarQuery("S", 3).Safe() {
		t.Error("StarQuery not safe")
	}
	if PathQuery("R", 3).Safe() {
		t.Error("3-path reported safe")
	}
	w, err := q.HypertreeWidth()
	if err != nil || w != 1 {
		t.Errorf("width = %d, %v", w, err)
	}
}

func TestParseQueryError(t *testing.T) {
	if _, err := ParseQuery("R(x"); err == nil {
		t.Error("bad query parsed")
	}
}

func TestAddFactValidation(t *testing.T) {
	d := NewDatabase()
	if err := d.AddFact("R", big.NewRat(3, 2), "a"); err == nil {
		t.Error("probability > 1 accepted")
	}
	if err := d.AddFact("R", nil, "a"); err != nil {
		t.Error(err)
	}
	if d.Size() != 1 {
		t.Errorf("Size = %d", d.Size())
	}
}

func TestParseDatabase(t *testing.T) {
	d, err := ParseDatabase(strings.NewReader("R(a,b) : 1/2\nS(b) : 0.25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 2 {
		t.Errorf("Size = %d", d.Size())
	}
	if !strings.Contains(d.String(), "S(b) : 1/4") {
		t.Errorf("String = %q", d.String())
	}
}

func TestProbabilityAgainstBruteForce(t *testing.T) {
	q := PathQuery("R", 3)
	d := smallPathDB(t)
	want, err := BruteForceProbability(q, d)
	if err != nil {
		t.Fatal(err)
	}
	wantF, _ := want.Float64()
	// force-nfta: the router would answer this small instance exactly
	// through its lineage; the tree FPRAS is what is checked here.
	res, err := Probability(q, d, &Options{Epsilon: 0.1, Seed: 7, Strategy: "force-nfta"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("3-path should not have an exact safe plan")
	}
	if res.Width != 1 || !res.SelfJoinFree || res.Safe {
		t.Errorf("classification wrong: %+v", res)
	}
	if wantF == 0 {
		t.Fatal("degenerate test instance")
	}
	if r := res.Probability / wantF; r < 0.75 || r > 1.25 {
		t.Errorf("estimate %v vs exact %v", res.Probability, wantF)
	}
}

func TestProbabilitySafeIsExact(t *testing.T) {
	q := StarQuery("R", 2)
	d := NewDatabase()
	_ = d.AddFact("R1", big.NewRat(1, 2), "h", "a")
	_ = d.AddFact("R2", big.NewRat(1, 3), "h", "b")
	res, err := Probability(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Error("safe query not answered exactly")
	}
	if math.Abs(res.Probability-1.0/6.0) > 1e-12 {
		t.Errorf("probability = %v, want 1/6", res.Probability)
	}
}

func TestEstimateForcesFPRAS(t *testing.T) {
	q := StarQuery("R", 2)
	d := NewDatabase()
	_ = d.AddFact("R1", big.NewRat(1, 2), "h", "a")
	_ = d.AddFact("R2", big.NewRat(1, 2), "h", "b")
	got, err := Estimate(q, d, &Options{Epsilon: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.15 || got > 0.35 { // exact 1/4
		t.Errorf("estimate = %v, want ≈ 0.25", got)
	}
}

func TestUniformReliability(t *testing.T) {
	q := PathQuery("R", 2)
	d := NewDatabase()
	_ = d.AddFact("R1", nil, "a", "b")
	_ = d.AddFact("R2", nil, "b", "c")
	_ = d.AddFact("R2", nil, "b", "d")
	got, err := UniformReliability(q, d, &Options{Epsilon: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Satisfying subinstances: must contain R1(a,b) and ≥1 R2 fact → 3.
	f, _ := got.Float64()
	if f < 2.4 || f > 3.6 {
		t.Errorf("UR estimate = %v, want ≈ 3", got)
	}
}

func TestExactProbabilityUnsafe(t *testing.T) {
	q := PathQuery("R", 3)
	d := smallPathDB(t)
	if _, err := ExactProbability(q, d); !errors.Is(err, ErrUnsafe) {
		t.Errorf("err = %v, want ErrUnsafe", err)
	}
}

func TestProbabilityUnsupported(t *testing.T) {
	// A self-join whose lineage is too large for the exact route.
	q := MustParseQuery("R(x,y), R(y,z)")
	d := NewDatabase()
	for i := 0; i < 40; i++ {
		_ = d.AddFact("R", big.NewRat(1, 2), string(rune('a'+i)), string(rune('b'+i)))
	}
	if _, err := Probability(q, d, nil); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestLineageInfo(t *testing.T) {
	q := PathQuery("R", 2)
	d := NewDatabase()
	_ = d.AddFact("R1", nil, "a", "b")
	_ = d.AddFact("R2", nil, "b", "c")
	info, err := Lineage(q, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Clauses != 1 || info.Literals != 2 {
		t.Errorf("Lineage = %+v", info)
	}
	if _, err := Lineage(q, d, 1); err != nil {
		t.Errorf("limit 1 with 1 clause should pass: %v", err)
	}
}

func TestClassifyAPI(t *testing.T) {
	sjf, bounded, safe, width := Classify(PathQuery("R", 4))
	if !sjf || !bounded || safe || width != 1 {
		t.Errorf("Classify = %v %v %v %d", sjf, bounded, safe, width)
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	d := NewDatabase()
	for i := 0; i < 31; i++ {
		_ = d.AddFact("R1", nil, "a", string(rune('a'+i)))
	}
	if _, err := BruteForceProbability(PathQuery("R", 1), d); err == nil {
		t.Error("oversized brute force accepted")
	}
}

func TestSampleWorldPublicAPI(t *testing.T) {
	q := PathQuery("R", 2)
	d := NewDatabase()
	_ = d.AddFact("R1", big.NewRat(1, 2), "a", "b")
	_ = d.AddFact("R2", big.NewRat(1, 2), "b", "c")
	for i := 0; i < 10; i++ {
		w, err := SampleWorld(q, d, &Options{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			t.Fatal("nil world from satisfiable query")
		}
		// The only witness chain must be fully present.
		facts := w.Facts()
		if len(facts) != 2 || facts[0] != "R1(a,b)" || facts[1] != "R2(b,c)" {
			t.Errorf("world facts = %v", facts)
		}
	}
	sub, err := SampleSatisfyingSubinstance(q, d, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub == nil || len(sub.Facts()) != 2 {
		t.Errorf("subinstance = %+v", sub)
	}
}

func TestExplainAndPosteriorPublicAPI(t *testing.T) {
	q := PathQuery("R", 2)
	d := NewDatabase()
	_ = d.AddFact("R1", big.NewRat(1, 2), "a", "b")
	_ = d.AddFact("R2", big.NewRat(1, 2), "b", "c")
	plan, err := Explain(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "route:") {
		t.Errorf("plan = %q", plan)
	}
	post, err := PosteriorInclusion(q, d, &Options{Epsilon: 0.1, Seed: 2}, "R1", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	// The single R1 fact is forced whenever Q holds.
	if post < 0.9 || post > 1.0 {
		t.Errorf("posterior = %v, want ≈ 1", post)
	}
}

func TestProbabilityUnionPublicAPI(t *testing.T) {
	q1 := MustParseQuery("A(x)")
	q2 := MustParseQuery("B(x)")
	d := NewDatabase()
	_ = d.AddFact("A", big.NewRat(1, 2), "u")
	_ = d.AddFact("B", big.NewRat(1, 3), "v")
	got, err := ProbabilityUnion([]*Query{q1, q2}, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.5*(2.0/3.0) // = 2/3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("union = %v, want %v", got, want)
	}
	if _, err := ProbabilityUnion([]*Query{q1, q1}, d, nil); !errors.Is(err, ErrUnsupported) {
		t.Errorf("shared relations accepted: %v", err)
	}
}

func TestPublicAPICoverageGaps(t *testing.T) {
	// Query.String and error paths across the facade.
	q := MustParseQuery("R(x,y), S(y,z)")
	if q.String() != "R(x,y), S(y,z)" {
		t.Errorf("String = %q", q.String())
	}
	if _, err := ParseDatabase(strings.NewReader("R(a : bad")); err == nil {
		t.Error("bad database parsed")
	}
	if _, err := LoadDatabase("/nonexistent/path.pdb"); err == nil {
		t.Error("missing file loaded")
	}
	// LoadDatabase happy path through a temp file.
	path := filepath.Join(t.TempDir(), "db.pdb")
	if err := os.WriteFile(path, []byte("R(a,b) : 1/2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 1 {
		t.Errorf("Size = %d", d.Size())
	}
	// Lineage error path (limit exceeded).
	big1 := NewDatabase()
	for i := 0; i < 4; i++ {
		_ = big1.AddFact("R1", nil, "a", string(rune('a'+i)))
		_ = big1.AddFact("R2", nil, string(rune('a'+i)), "z")
	}
	if _, err := Lineage(PathQuery("R", 2), big1, 1); err == nil {
		t.Error("lineage limit not enforced")
	}
	// Explain error path: the tree FPRAS refuses a self-join.
	sj := MustParseQuery("R(x,y), R(y,z)")
	if _, err := Explain(sj, d, &Options{Strategy: "force-nfta"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Explain err = %v", err)
	}
	// SampleWorld nil when Pr(Q)=0; SampleSatisfyingSubinstance nil when
	// unsatisfiable.
	empty := NewDatabase()
	_ = empty.AddFact("R1", big.NewRat(0, 1), "a", "b")
	_ = empty.AddFact("R2", nil, "b", "c")
	w, err := SampleWorld(PathQuery("R", 2), empty, nil)
	if err != nil || w != nil {
		t.Errorf("SampleWorld = %v, %v", w, err)
	}
	unsat := NewDatabase()
	_ = unsat.AddFact("R1", nil, "a", "b") // R2 empty
	s, err := SampleSatisfyingSubinstance(PathQuery("R", 2), unsat, nil)
	if err != nil || s != nil {
		t.Errorf("SampleSatisfyingSubinstance = %v, %v", s, err)
	}
	// HypertreeWidth error path: invalid (empty) query cannot be built
	// via ParseQuery, so exercise via a query with undecomposable width
	// cap — not reachable; instead exercise MustParseQuery panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustParseQuery did not panic")
			}
		}()
		MustParseQuery("R(")
	}()
	// UniformReliability through the tree pipeline (non-path query) and
	// through the string pipeline with a non-binary foreign fact.
	star := StarQuery("S", 2)
	sdb := NewDatabase()
	_ = sdb.AddFact("S1", nil, "h", "a")
	_ = sdb.AddFact("S2", nil, "h", "b")
	ur, err := UniformReliability(star, sdb, &Options{Epsilon: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := ur.Float64(); f < 0.8 || f > 1.2 { // UR = 1
		t.Errorf("star UR = %v, want ≈ 1", ur)
	}
	mixed := NewDatabase()
	_ = mixed.AddFact("R1", nil, "a", "b")
	_ = mixed.AddFact("R2", nil, "b", "c")
	_ = mixed.AddFact("R1", nil, "u") // non-binary fact of a query relation
	ur2, err := UniformReliability(PathQuery("R", 2), mixed, &Options{Epsilon: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := ur2.Float64(); f < 1.5 || f > 2.5 { // chain forced, unary fact free: 2
		t.Errorf("mixed UR = %v, want ≈ 2", ur2)
	}
}
