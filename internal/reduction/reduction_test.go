package reduction

import (
	"math/big"
	"math/rand"
	"testing"

	"pqe/internal/count"
	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/hypertree"
	"pqe/internal/nfa"
	"pqe/internal/nfta"
	"pqe/internal/pdb"
	"pqe/internal/union"
)

// randomGraphDB builds a database for a path query of length n: each
// relation Rᵢ gets a few random edges over a small constant pool.
func randomGraphDB(rng *rand.Rand, n, perRel, pool int) *pdb.Database {
	d := pdb.NewDatabase()
	consts := make([]string, pool)
	for i := range consts {
		consts[i] = string(rune('a' + i))
	}
	for i := 1; i <= n; i++ {
		rel := "R" + string(rune('0'+i))
		for j := 0; j < perRel; j++ {
			d.Add(pdb.NewFact(rel, consts[rng.Intn(pool)], consts[rng.Intn(pool)]))
		}
	}
	return d
}

func TestPathNFAExactBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(3)
		q := cq.PathQuery("R", n)
		d := randomGraphDB(rng, n, 1+rng.Intn(3), 3)
		m, err := PathNFA(q, d)
		if err != nil {
			t.Fatal(err)
		}
		got := nfa.ExactCount(m, d.Size())
		want := exact.MustUR(q, d)
		if got.Cmp(want) != 0 {
			t.Errorf("trial %d: |L_%d(M)| = %v, UR = %v\nQ = %s\nD = %s",
				trial, d.Size(), got, want, q, d)
		}
	}
}

func TestPathNFAStringsDescribeSubinstances(t *testing.T) {
	// Every accepted string must decode to a satisfying subinstance, and
	// no two strings to the same one.
	q := cq.PathQuery("R", 2)
	d := pdb.FromFacts(
		pdb.NewFact("R1", "a", "b"),
		pdb.NewFact("R1", "a", "c"),
		pdb.NewFact("R2", "b", "d"),
		pdb.NewFact("R2", "c", "d"),
	)
	m, err := PathNFA(q, d)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	nfa.EnumerateWords(m, d.Size(), func(w []int) bool {
		mask := make([]bool, d.Size())
		for _, sym := range w {
			name := m.Symbols.Name(sym)
			if _, negated := nfta.IsNegName(name); negated {
				continue
			}
			f, err := pdb.ParseFact(name)
			if err != nil {
				t.Fatalf("bad literal %q: %v", name, err)
			}
			mask[d.IndexOf(f)] = true
		}
		key := ""
		for _, b := range mask {
			if b {
				key += "1"
			} else {
				key += "0"
			}
		}
		if seen[key] {
			t.Errorf("two accepted strings decode to subinstance %s", key)
		}
		seen[key] = true
		if !cq.Satisfies(d.Subinstance(mask), q) {
			t.Errorf("accepted string decodes to non-satisfying subinstance %s", key)
		}
		return true
	})
	if int64(len(seen)) != exact.MustUR(q, d).Int64() {
		t.Errorf("decoded %d subinstances, UR = %v", len(seen), exact.MustUR(q, d))
	}
}

func TestPathNFAEmptyRelation(t *testing.T) {
	q := cq.PathQuery("R", 2)
	d := pdb.FromFacts(pdb.NewFact("R1", "a", "b")) // R2 empty
	m, err := PathNFA(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := nfa.ExactCount(m, d.Size()); got.Sign() != 0 {
		t.Errorf("count = %v, want 0", got)
	}
}

func TestPathNFARejectsNonPath(t *testing.T) {
	if _, err := PathNFA(cq.MustParse("R(x,y), S(z,w)"), pdb.NewDatabase()); err == nil {
		t.Error("non-path query accepted")
	}
}

func TestPathNFARejectsForeignRelations(t *testing.T) {
	d := pdb.FromFacts(pdb.NewFact("R1", "a", "b"), pdb.NewFact("Z", "a", "b"))
	if _, err := PathNFA(cq.PathQuery("R", 1), d); err == nil {
		t.Error("foreign relation accepted")
	}
}

// buildURFor decomposes and reduces, failing the test on error.
func buildURFor(t *testing.T, q *cq.Query, d *pdb.Database) *URReduction {
	t.Helper()
	dec, err := hypertree.Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := BuildUR(q, d, dec)
	if err != nil {
		t.Fatal(err)
	}
	return ur
}

func TestEncodeSubinstanceBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	queries := []*cq.Query{
		cq.PathQuery("R", 2),
		cq.PathQuery("R", 3),
		cq.StarQuery("R", 2),
		cq.MustParse("R1(x,y), R2(y,z), R3(y,w)"), // branching join tree
	}
	for trial := 0; trial < 25; trial++ {
		q := queries[rng.Intn(len(queries))]
		d := randomGraphDB(rng, q.Len(), 1+rng.Intn(2), 3)
		ur := buildURFor(t, q, d)

		keys := make(map[string]bool)
		n := d.Size()
		mask := make([]bool, n)
		for m := 0; m < 1<<uint(n); m++ {
			for i := range mask {
				mask[i] = m&(1<<uint(i)) != 0
			}
			tree, err := ur.EncodeSubinstance(mask)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if tree.Size() != ur.TreeSize {
				t.Fatalf("encoding size %d != %d", tree.Size(), ur.TreeSize)
			}
			k := tree.Key()
			if keys[k] {
				t.Fatalf("two subinstances share an encoding")
			}
			keys[k] = true
			want := cq.Satisfies(d.Subinstance(mask), q)
			if got := ur.Auto.Accepts(tree); got != want {
				t.Errorf("trial %d: accept=%v satisfies=%v\nQ=%s\nD=%s\nmask=%v",
					trial, got, want, q, d, mask)
			}
		}
	}
}

func TestBuildURCountMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	queries := []*cq.Query{
		cq.PathQuery("R", 2),
		cq.PathQuery("R", 3),
		cq.StarQuery("R", 3),
	}
	for trial := 0; trial < 12; trial++ {
		q := queries[rng.Intn(len(queries))]
		d := randomGraphDB(rng, q.Len(), 1+rng.Intn(2), 3)
		ur := buildURFor(t, q, d)
		want := exact.MustUR(q, d)
		got := count.Trees(ur.Auto, ur.TreeSize, union.Options{Epsilon: 0.1, Trials: 5, Seed: int64(trial + 1)})
		if want.Sign() == 0 {
			if !got.IsZero() {
				t.Errorf("trial %d: UR 0, estimate %v", trial, got)
			}
			continue
		}
		ratio := got.Float() / float64(want.Int64())
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("trial %d: estimate %v vs UR %v (ratio %.3f)\nQ=%s D=%s",
				trial, got, want, ratio, q, d)
		}
	}
}

func TestBuildURCyclicQuery(t *testing.T) {
	// Triangle query through a width-2 decomposition.
	q := cq.CycleQuery("C", 3)
	d := pdb.FromFacts(
		pdb.NewFact("C1", "a", "b"),
		pdb.NewFact("C2", "b", "c"),
		pdb.NewFact("C3", "c", "a"),
		pdb.NewFact("C1", "a", "c"),
	)
	ur := buildURFor(t, q, d)
	want := exact.MustUR(q, d)
	got := count.Trees(ur.Auto, ur.TreeSize, union.Options{Epsilon: 0.1, Trials: 5, Seed: 2})
	ratio := got.Float() / float64(want.Int64())
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("estimate %v vs UR %v (ratio %.3f)", got, want, ratio)
	}
}

func TestBuildURRejectsSelfJoins(t *testing.T) {
	q := cq.MustParse("R(x,y), R(y,z)")
	dec := &hypertree.Decomposition{}
	_ = dec
	if _, err := hypertree.Decompose(q); err != nil {
		t.Fatalf("decompose: %v", err)
	}
	d, _ := hypertree.Decompose(q)
	if _, err := BuildUR(q, pdb.NewDatabase(), d); err == nil {
		t.Error("self-join query accepted")
	}
}

func TestBuildPQEMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	queries := []*cq.Query{
		cq.PathQuery("R", 2),
		cq.StarQuery("R", 2),
	}
	for trial := 0; trial < 10; trial++ {
		q := queries[rng.Intn(len(queries))]
		d := randomGraphDB(rng, q.Len(), 1+rng.Intn(2), 3)
		h := pdb.Empty()
		for _, f := range d.Facts() {
			den := int64(1 + rng.Intn(4))
			num := int64(rng.Intn(int(den) + 1))
			h.Add(f, pdb.NewProb(num, den))
		}
		dec, err := hypertree.Decompose(q)
		if err != nil {
			t.Fatal(err)
		}
		red, err := BuildPQE(q, h, dec)
		if err != nil {
			t.Fatal(err)
		}
		want := exact.MustPQE(q, h)
		got := count.Trees(red.Auto, red.TreeSize, union.Options{Epsilon: 0.1, Trials: 5, Seed: int64(trial + 1)})
		den := new(big.Float).SetInt(red.DenProduct)
		denF, _ := den.Float64()
		gotProb := got.Float() / denF
		wantF, _ := want.Float64()
		if wantF == 0 {
			if gotProb != 0 {
				t.Errorf("trial %d: exact 0, estimate %v", trial, gotProb)
			}
			continue
		}
		ratio := gotProb / wantF
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("trial %d: estimate %v vs exact %v (ratio %.3f)\nQ=%s\nH=%s",
				trial, gotProb, wantF, ratio, q, h)
		}
	}
}

func TestBuildPQEUniformHalfReducesToUR(t *testing.T) {
	// With π ≡ 1/2 every multiplier is 1 and no digits are added: the
	// weighted automaton must count exactly UR.
	q := cq.PathQuery("R", 2)
	d := pdb.FromFacts(
		pdb.NewFact("R1", "a", "b"),
		pdb.NewFact("R2", "b", "c"),
		pdb.NewFact("R2", "b", "d"),
	)
	h := pdb.Uniform(d)
	dec, err := hypertree.Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	red, err := BuildPQE(q, h, dec)
	if err != nil {
		t.Fatal(err)
	}
	if red.TreeSize != d.Size() {
		t.Errorf("TreeSize = %d, want %d (no digit nodes for π ≡ ½)", red.TreeSize, d.Size())
	}
	if red.DenProduct.Int64() != 8 {
		t.Errorf("DenProduct = %v", red.DenProduct)
	}
	got := count.Trees(red.Auto, red.TreeSize, union.Options{Epsilon: 0.1, Trials: 5, Seed: 4})
	want := exact.MustUR(q, d)
	ratio := got.Float() / float64(want.Int64())
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("estimate %v vs UR %v", got, want)
	}
}

func TestBuildPQEExtremeProbabilities(t *testing.T) {
	// π = 1 forces presence; π = 0 forbids it.
	q := cq.PathQuery("R", 2)
	h := pdb.Empty()
	h.Add(pdb.NewFact("R1", "a", "b"), pdb.ProbOne)
	h.Add(pdb.NewFact("R2", "b", "c"), pdb.NewProb(1, 2))
	h.Add(pdb.NewFact("R2", "b", "d"), pdb.NewProb(0, 1))
	dec, err := hypertree.Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	red, err := BuildPQE(q, h, dec)
	if err != nil {
		t.Fatal(err)
	}
	want := exact.MustPQE(q, h) // = 1/2
	if want.Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatalf("oracle = %v, want 1/2", want)
	}
	got := count.Trees(red.Auto, red.TreeSize, union.Options{Epsilon: 0.1, Trials: 5, Seed: 6})
	denF, _ := new(big.Float).SetInt(red.DenProduct).Float64()
	gotProb := got.Float() / denF
	if gotProb < 0.4 || gotProb > 0.6 {
		t.Errorf("estimate %v, want ≈ 0.5", gotProb)
	}
}

func TestBuildPathPQEMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(2)
		q := cq.PathQuery("R", n)
		d := randomGraphDB(rng, n, 1+rng.Intn(2), 3)
		h := pdb.Empty()
		for _, f := range d.Facts() {
			den := int64(1 + rng.Intn(4))
			num := int64(rng.Intn(int(den) + 1))
			h.Add(f, pdb.NewProb(num, den))
		}
		red, err := BuildPathPQE(q, h)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exact.MustPQE(q, h).Float64()
		got := nfa.Count(red.Auto, red.WordSize, union.Options{Epsilon: 0.1, Trials: 5, Seed: int64(trial + 1)})
		denF, _ := new(big.Float).SetInt(red.DenProduct).Float64()
		gotProb := got.Float() / denF
		if want == 0 {
			if gotProb != 0 {
				t.Errorf("trial %d: exact 0, estimate %v", trial, gotProb)
			}
			continue
		}
		ratio := gotProb / want
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("trial %d: estimate %v vs exact %v (ratio %.3f)\nQ=%s\nH=%s",
				trial, gotProb, want, ratio, q, h)
		}
	}
}

func TestBuildPathPQEExactCountIsWeightedSum(t *testing.T) {
	// With small weights the accepted-word count equals the weighted
	// subinstance sum exactly (no sampling involved in ExactCount).
	q := cq.PathQuery("R", 2)
	h := pdb.Empty()
	h.Add(pdb.NewFact("R1", "a", "b"), pdb.NewProb(2, 3))
	h.Add(pdb.NewFact("R2", "b", "c"), pdb.NewProb(1, 2))
	h.Add(pdb.NewFact("R2", "b", "d"), pdb.NewProb(3, 4))
	red, err := BuildPathPQE(q, h)
	if err != nil {
		t.Fatal(err)
	}
	count := nfa.ExactCount(red.Auto, red.WordSize)
	// Pr = count / denProduct must equal the brute-force value exactly.
	got := new(big.Rat).SetFrac(count, red.DenProduct)
	want := exact.MustPQE(q, h)
	if got.Cmp(want) != 0 {
		t.Errorf("count/den = %v, want %v", got, want)
	}
}

func TestBuildPQEExactCountIdentity(t *testing.T) {
	// The Theorem 1 identity, checked exactly (no sampling):
	// |L_k(T')| / ∏dᵢ = Pr_H(Q), with the count taken by the
	// determinization oracle.
	rng := rand.New(rand.NewSource(101))
	queries := []*cq.Query{
		cq.PathQuery("R", 2),
		cq.StarQuery("S", 2),
	}
	consts := []string{"a", "b"}
	for trial := 0; trial < 6; trial++ {
		q := queries[trial%len(queries)]
		h := pdb.Empty()
		for _, rel := range q.Relations() {
			for i := 0; i < 1+rng.Intn(2); i++ {
				den := int64(1 + rng.Intn(4))
				num := int64(rng.Intn(int(den) + 1))
				h.Add(pdb.NewFact(rel, consts[rng.Intn(2)], consts[rng.Intn(2)]), pdb.NewProb(num, den))
			}
		}
		dec, err := hypertree.Decompose(q)
		if err != nil {
			t.Fatal(err)
		}
		red, err := BuildPQE(q, h, dec)
		if err != nil {
			t.Fatal(err)
		}
		count := nfta.ExactCountDet(red.Auto, red.TreeSize)
		got := new(big.Rat).SetFrac(count, red.DenProduct)
		want := exact.MustPQE(q, h)
		if got.Cmp(want) != 0 {
			t.Errorf("trial %d: count/den = %v, want %v\nQ=%s\nH=%s", trial, got, want, q, h)
		}
	}
}
