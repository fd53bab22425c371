package count

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"pqe/internal/nfta"
	"pqe/internal/obs"
)

// fullBinary builds the automaton of full binary trees (f/2, x/0).
func fullBinary() *nfta.NFTA {
	a := nfta.New()
	q := a.AddState()
	a.AddTransition(q, "f", q, q)
	a.AddTransition(q, "x")
	a.SetInitial(q)
	return a
}

// chains builds the automaton of unary chains a*b.
func chains() *nfta.NFTA {
	a := nfta.New()
	q := a.AddState()
	a.AddTransition(q, "a", q)
	a.AddTransition(q, "b")
	a.SetInitial(q)
	return a
}

// ambiguous builds an automaton accepting each chain a*b via two
// distinct nondeterministic branches, so run-counting would overcount
// by 2^(length−1) while tree counting must not.
func ambiguous() *nfta.NFTA {
	a := nfta.New()
	q := a.AddState()
	r := a.AddState()
	a.AddTransition(q, "a", q)
	a.AddTransition(q, "a", r)
	a.AddTransition(r, "a", q)
	a.AddTransition(r, "a", r)
	a.AddTransition(q, "b")
	a.AddTransition(r, "b")
	a.SetInitial(q)
	return a
}

func TestTreesExactSingletons(t *testing.T) {
	a := chains()
	// Exactly one chain of each size.
	for n := 1; n <= 12; n++ {
		got := Trees(a, n, Options{Seed: 1})
		if got.Float() != 1 {
			t.Errorf("chains size %d: %v", n, got)
		}
	}
}

func TestTreesCatalan(t *testing.T) {
	a := fullBinary()
	// Full binary trees of size 2k+1: Catalan(k) = 1,1,2,5,14,42.
	want := []int64{1, 1, 2, 5, 14, 42}
	for k, w := range want {
		n := 2*k + 1
		got := Trees(a, n, Options{Epsilon: 0.1, Trials: 7, Seed: 5})
		ratio := got.Float() / float64(w)
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("size %d: estimate %v, want ≈ %d", n, got, w)
		}
		// Even sizes are empty.
		if n+1 <= 11 {
			if got := Trees(a, n+1, Options{Seed: 2}); !got.IsZero() {
				t.Errorf("size %d: estimate %v, want 0", n+1, got)
			}
		}
	}
}

func TestTreesAmbiguousNotRuns(t *testing.T) {
	a := ambiguous()
	for n := 2; n <= 9; n++ {
		got := Trees(a, n, Options{Epsilon: 0.1, Trials: 7, Seed: 3})
		// Exactly one distinct tree per size, regardless of the 2^(n-1)
		// accepting runs.
		if got.Float() < 0.8 || got.Float() > 1.2 {
			t.Errorf("size %d: estimate %v, want ≈ 1", n, got)
		}
	}
}

func TestTreesMatchesExactOnRandomAutomata(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		a := randomNFTA(rng)
		n := 1 + rng.Intn(5)
		exact := nfta.ExactCount(a, n)
		got := Trees(a, n, Options{Epsilon: 0.15, Trials: 7, Seed: int64(trial + 1)})
		if exact.Sign() == 0 {
			if !got.IsZero() {
				t.Errorf("trial %d size %d: exact 0, estimate %v\n%s", trial, n, got, a)
			}
			continue
		}
		ratio := got.Float() / float64(exact.Int64())
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("trial %d size %d: estimate %v vs exact %v (ratio %.3f)\n%s",
				trial, n, got, exact, ratio, a)
		}
	}
}

// randomNFTA builds a small random automaton with mixed arities and
// plenty of ambiguity.
func randomNFTA(rng *rand.Rand) *nfta.NFTA {
	a := nfta.New()
	numStates := 2 + rng.Intn(3)
	for i := 0; i < numStates; i++ {
		a.AddState()
	}
	syms := []string{"f", "g", "x", "y"}
	numTrans := 2 + rng.Intn(8)
	for i := 0; i < numTrans; i++ {
		arity := rng.Intn(3)
		children := make([]int, arity)
		for j := range children {
			children[j] = rng.Intn(numStates)
		}
		a.AddTransition(rng.Intn(numStates), syms[rng.Intn(len(syms))], children...)
	}
	// Ensure at least one leaf transition so the language can be
	// non-empty.
	a.AddTransition(rng.Intn(numStates), "x")
	a.SetInitial(0)
	return a
}

func TestSampleTreeInLanguage(t *testing.T) {
	a := fullBinary()
	for i := 0; i < 30; i++ {
		tr := SampleTree(a, 7, Options{Seed: int64(i + 1)})
		if tr == nil {
			t.Fatal("nil sample from non-empty language")
		}
		if tr.Size() != 7 {
			t.Fatalf("sample size %d", tr.Size())
		}
		if !a.Accepts(tr) {
			t.Errorf("sampled tree %s rejected", tr)
		}
	}
}

func TestSampleTreeApproxUniform(t *testing.T) {
	a := fullBinary()
	// Size 7 → 5 distinct trees (Catalan 3).
	counts := make(map[string]int)
	draws := 1000
	for i := 0; i < draws; i++ {
		tr := SampleTree(a, 7, Options{Epsilon: 0.1, Samples: 100, Seed: int64(i + 1)})
		if tr == nil {
			t.Fatal("nil sample")
		}
		counts[tr.Key()]++
	}
	if len(counts) != 5 {
		t.Fatalf("support size %d, want 5", len(counts))
	}
	for k, c := range counts {
		frac := float64(c) / float64(draws)
		if frac < 0.08 || frac > 0.35 {
			t.Errorf("tree %s frequency %.3f, want ≈ 0.2", k, frac)
		}
	}
}

func TestSampleTreeEmpty(t *testing.T) {
	a := nfta.New()
	q := a.AddState()
	a.AddTransition(q, "f", q) // no leaves: language empty
	a.SetInitial(q)
	if tr := SampleTree(a, 3, Options{Seed: 1}); tr != nil {
		t.Errorf("sample from empty language: %v", tr)
	}
	if got := Trees(a, 3, Options{Seed: 1}); !got.IsZero() {
		t.Errorf("count of empty language: %v", got)
	}
}

func TestTreesPanicsOnLambda(t *testing.T) {
	a := nfta.New()
	q := a.AddState()
	r := a.AddState()
	a.AddLambda(q, r)
	a.AddTransition(r, "x")
	a.SetInitial(q)
	defer func() {
		if recover() == nil {
			t.Error("no panic on λ-transitions")
		}
	}()
	Trees(a, 1, Options{Seed: 1})
}

func TestTreesLargeSizeNoOverflow(t *testing.T) {
	// Binary trees up to size 41: Catalan(20) ≈ 6.56e9; also exercises
	// deep recursion and efloat arithmetic.
	a := fullBinary()
	got := Trees(a, 41, Options{Epsilon: 0.2, Trials: 3, Seed: 1})
	want := catalan(20)
	ratio := got.Float() / want
	if ratio < 0.6 || ratio > 1.4 {
		t.Errorf("Catalan(20): estimate %v, want ≈ %.3g (ratio %.3f)", got, want, ratio)
	}
}

func catalan(k int) float64 {
	c := new(big.Int).Binomial(int64(2*k), int64(k))
	c.Div(c, big.NewInt(int64(k+1)))
	f, _ := new(big.Float).SetInt(c).Float64()
	return f
}

// Property: the estimator stays within a generous envelope of the exact
// count on random automata.
func TestQuickTreesEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping sampling-heavy property test in -short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFTA(rng)
		n := 1 + rng.Intn(5)
		exact := nfta.ExactCount(a, n)
		got := Trees(a, n, Options{Epsilon: 0.2, Trials: 5, Seed: seed + 1})
		if exact.Sign() == 0 {
			return got.IsZero()
		}
		ratio := got.Float() / float64(exact.Int64())
		return ratio > 0.55 && ratio < 1.45
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: samples always lie in the language and have the right size.
func TestQuickSamplesValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFTA(rng)
		n := 1 + rng.Intn(5)
		tr := SampleTree(a, n, Options{Seed: seed + 1})
		if tr == nil {
			return nfta.ExactCount(a, n).Sign() == 0
		}
		return tr.Size() == n && a.Accepts(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTreesParallelMatchesSequential(t *testing.T) {
	a := fullBinary()
	seq := Trees(a, 11, Options{Epsilon: 0.1, Trials: 5, Seed: 42})
	par := Trees(a, 11, Options{Epsilon: 0.1, Trials: 5, Seed: 42, MaxProcs: 5})
	if seq.Cmp(par) != 0 {
		t.Errorf("parallel %v != sequential %v with the same seed", par, seq)
	}
}

func TestTreesHeavyOverlap(t *testing.T) {
	// One symbol, many transitions with *identical* languages: the
	// worst case for the union estimator (every non-first branch is
	// fully redundant) and for the canonical-rejection sampler (retry
	// probability ≈ 1/branches).
	a := nfta.New()
	states := make([]int, 6)
	top := a.AddState()
	for i := range states {
		states[i] = a.AddState()
		a.AddTransition(states[i], "a", states[i])
		a.AddTransition(states[i], "b")
		a.AddTransition(top, "f", states[i]) // 6 redundant branches
	}
	a.SetInitial(top)
	// Language at size n: f-rooted chains a^(n-2) b → exactly 1 tree.
	for n := 3; n <= 8; n++ {
		got := Trees(a, n, Options{Epsilon: 0.1, Trials: 7, Seed: int64(n)})
		if got.Float() < 0.7 || got.Float() > 1.3 {
			t.Errorf("size %d: estimate %v, want ≈ 1", n, got)
		}
		tr := SampleTree(a, n, Options{Seed: int64(n + 1)})
		if tr == nil || !a.Accepts(tr) {
			t.Errorf("size %d: bad sample %v", n, tr)
		}
	}
}

func TestTreesPartialOverlap(t *testing.T) {
	// Branch 1 accepts chains ending in b, branch 2 chains ending in b
	// or c: union = chains ending in b or c (2 per size), with branch 2
	// strictly covering branch 1.
	a := nfta.New()
	top := a.AddState()
	s1 := a.AddState()
	s2 := a.AddState()
	a.AddTransition(s1, "a", s1)
	a.AddTransition(s1, "b")
	a.AddTransition(s2, "a", s2)
	a.AddTransition(s2, "b")
	a.AddTransition(s2, "c")
	a.AddTransition(top, "f", s1)
	a.AddTransition(top, "f", s2)
	a.SetInitial(top)
	for n := 3; n <= 8; n++ {
		want := nfta.ExactCountDet(a, n).Int64() // = 2
		got := Trees(a, n, Options{Epsilon: 0.1, Trials: 7, Seed: int64(n)})
		ratio := got.Float() / float64(want)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("size %d: estimate %v, want %d", n, got, want)
		}
	}
}

func TestTreesMinimalOptions(t *testing.T) {
	// Trials=1 and Samples=1 are legal (if noisy); the estimator must
	// not crash or hang.
	a := fullBinary()
	got := Trees(a, 7, Options{Trials: 1, Samples: 1, Seed: 3})
	if got.IsZero() {
		t.Error("estimate collapsed to zero")
	}
}

func TestStatsCollected(t *testing.T) {
	a := ambiguous() // overlapping branches force union sampling
	reg := obs.NewRegistry()
	Trees(a, 7, Options{Epsilon: 0.2, Trials: 3, Seed: 5, Obs: obs.NewScope(nil, reg, nil)})
	if reg.Counter("countnfta_tree_keys_total").Value() == 0 {
		t.Error("no tree keys recorded")
	}
	if reg.Counter("countnfta_union_samples_total").Value() == 0 {
		t.Error("no union samples recorded despite overlapping branches")
	}
}

// A call's registry flush allocates nothing: every counter name is
// built once per engine, so a counting call makes as many heap
// allocations with a registry attached as without one.
func TestRegistryFlushAllocFree(t *testing.T) {
	a := chains()
	allocs := func(sc *obs.Scope) float64 {
		return testing.AllocsPerRun(50, func() {
			Trees(a, 4, Options{Trials: 1, Seed: 1, MaxProcs: 1, Obs: sc})
		})
	}
	bare := allocs(nil)
	withReg := allocs(obs.NewScope(nil, obs.NewRegistry(), nil))
	if withReg > bare {
		t.Errorf("Trees allocates %.0f objects per call with a registry, %.0f without", withReg, bare)
	}
}

func TestTreesMatchesDeterminizedOracleLarger(t *testing.T) {
	// Cross-validate against the determinization oracle at sizes the
	// enumeration oracle cannot reach.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		a := randomNFTA(rng)
		n := 6 + rng.Intn(5)
		exact := nfta.ExactCountDet(a, n)
		got := Trees(a, n, Options{Epsilon: 0.15, Trials: 7, Seed: int64(trial + 1)})
		if exact.Sign() == 0 {
			if !got.IsZero() {
				t.Errorf("trial %d size %d: exact 0, estimate %v", trial, n, got)
			}
			continue
		}
		f, _ := new(big.Float).SetInt(exact).Float64()
		ratio := got.Float() / f
		if ratio < 0.65 || ratio > 1.35 {
			t.Errorf("trial %d size %d: estimate %v vs exact %v (ratio %.3f)\n%s",
				trial, n, got, exact, ratio, a)
		}
	}
}

// heavyOverlap builds the worst-case union automaton of
// TestTreesHeavyOverlap: six fully redundant branches under one symbol,
// so overlap sampling runs constantly.
func heavyOverlap() *nfta.NFTA {
	a := nfta.New()
	top := a.AddState()
	for i := 0; i < 6; i++ {
		s := a.AddState()
		a.AddTransition(s, "a", s)
		a.AddTransition(s, "b")
		a.AddTransition(top, "f", s)
	}
	a.SetInitial(top)
	return a
}

// The doc contract on Options.MaxProcs: for a fixed seed, every
// scheduler width — fewer workers than trials, one per trial, or more —
// returns bit-identical results to the sequential run.
func TestTreesDeterministicAcrossWorkers(t *testing.T) {
	for name, a := range map[string]*nfta.NFTA{
		"ambiguous":    ambiguous(),
		"heavyOverlap": heavyOverlap(),
		"fullBinary":   fullBinary(),
	} {
		n := 9
		base := Trees(a, n, Options{Epsilon: 0.1, Trials: 5, Seed: 42})
		for _, procs := range []int{1, 4, 5, 8} {
			got := Trees(a, n, Options{Epsilon: 0.1, Trials: 5, Seed: 42, MaxProcs: procs})
			if base.Cmp(got) != 0 {
				t.Errorf("%s: MaxProcs=%d gave %v, sequential %v", name, procs, got, base)
			}
		}
	}
}

func TestSampleTreeDeterministicAcrossWorkers(t *testing.T) {
	for name, a := range map[string]*nfta.NFTA{
		"ambiguous":    ambiguous(),
		"heavyOverlap": heavyOverlap(),
	} {
		n := 8
		ref := SampleTree(a, n, Options{Epsilon: 0.1, Seed: 7})
		if ref == nil {
			t.Fatalf("%s: nil reference sample", name)
		}
		for _, procs := range []int{1, 4, 8} {
			got := SampleTree(a, n, Options{Epsilon: 0.1, Seed: 7, MaxProcs: procs})
			if got == nil || !ref.Equal(got) {
				t.Errorf("%s: MaxProcs=%d sample %v, sequential %v", name, procs, got, ref)
			}
		}
	}
}
