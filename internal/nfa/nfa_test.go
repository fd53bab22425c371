package nfa

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildAB returns an NFA over {a,b} accepting words with at least one a,
// deliberately ambiguous: both a self-looping "seen nothing" state that
// guesses and a direct path accept the same words.
func buildAB() *NFA {
	m := New()
	q0 := m.AddState()
	q1 := m.AddState()
	m.AddTransition(q0, "a", q0)
	m.AddTransition(q0, "b", q0)
	m.AddTransition(q0, "a", q1)
	m.AddTransition(q1, "a", q1)
	m.AddTransition(q1, "b", q1)
	m.SetInitial(q0)
	m.SetFinal(q1)
	return m
}

func TestAccepts(t *testing.T) {
	m := buildAB()
	a, _ := m.Symbols.Lookup("a")
	b, _ := m.Symbols.Lookup("b")
	cases := []struct {
		word []int
		want bool
	}{
		{[]int{}, false},
		{[]int{b}, false},
		{[]int{a}, true},
		{[]int{b, b, b}, false},
		{[]int{b, a, b}, true},
	}
	for _, c := range cases {
		if got := m.Accepts(c.word); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", m.WordString(c.word), got, c.want)
		}
	}
}

func TestExactCountWordsWithAtLeastOneA(t *testing.T) {
	m := buildAB()
	// Words of length n over {a,b} with ≥1 a: 2^n − 1.
	for n := 0; n <= 10; n++ {
		want := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(n)), big.NewInt(1))
		if got := ExactCount(m, n); got.Cmp(want) != 0 {
			t.Errorf("ExactCount(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestEnumerateWordsMatchesExactCount(t *testing.T) {
	m := buildAB()
	for n := 0; n <= 6; n++ {
		seen := make(map[string]bool)
		EnumerateWords(m, n, func(w []int) bool {
			k := m.WordString(w)
			if seen[k] {
				t.Errorf("duplicate word %s at length %d", k, n)
			}
			seen[k] = true
			if !m.Accepts(w) {
				t.Errorf("enumerated word %s not accepted", k)
			}
			return true
		})
		if got := ExactCount(m, n); got.Cmp(big.NewInt(int64(len(seen)))) != 0 {
			t.Errorf("length %d: enumerated %d, ExactCount %v", n, len(seen), got)
		}
	}
}

func TestAddTransitionDedup(t *testing.T) {
	m := New()
	q := m.AddState()
	r := m.AddState()
	m.AddTransition(q, "a", r)
	m.AddTransition(q, "a", r)
	if got := m.NumTransitions(); got != 1 {
		t.Errorf("NumTransitions = %d", got)
	}
	a, _ := m.Symbols.Lookup("a")
	if got := m.Targets(q, a); len(got) != 1 || got[0] != r {
		t.Errorf("Targets = %v", got)
	}
}

func TestStateBoundsPanic(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range state did not panic")
		}
	}()
	m.AddTransition(0, "a", 0)
}

// randomNFA builds a random NFA with heavy ambiguity.
func randomNFA(rng *rand.Rand) *NFA {
	m := New()
	numStates := 2 + rng.Intn(4)
	syms := []string{"a", "b", "c"}[:1+rng.Intn(3)]
	for i := 0; i < numStates; i++ {
		m.AddState()
	}
	numTrans := 1 + rng.Intn(3*numStates)
	for i := 0; i < numTrans; i++ {
		m.AddTransition(rng.Intn(numStates), syms[rng.Intn(len(syms))], rng.Intn(numStates))
	}
	m.SetInitial(rng.Intn(numStates))
	if rng.Intn(2) == 0 {
		m.SetInitial(rng.Intn(numStates))
	}
	m.SetFinal(rng.Intn(numStates))
	if rng.Intn(2) == 0 {
		m.SetFinal(rng.Intn(numStates))
	}
	return m
}

// bruteCount enumerates all words of length n over the alphabet and
// counts acceptance (independent of ExactCount's subset DP).
func bruteCount(m *NFA, n int) int64 {
	numSyms := m.Symbols.Size()
	word := make([]int, n)
	var count int64
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if m.Accepts(word) {
				count++
			}
			return
		}
		for a := 0; a < numSyms; a++ {
			word[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return count
}

// Property: ExactCount agrees with brute-force word enumeration.
func TestQuickExactCountAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomNFA(rng)
		n := rng.Intn(6)
		return ExactCount(m, n).Int64() == bruteCount(m, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCountApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := CountOptions{Epsilon: 0.15, Trials: 7, Seed: 42}
	for trial := 0; trial < 40; trial++ {
		m := randomNFA(rng)
		n := 1 + rng.Intn(7)
		exact := ExactCount(m, n)
		got := Count(m, n, opts)
		if exact.Sign() == 0 {
			if !got.IsZero() {
				t.Errorf("trial %d: exact 0 but estimate %v", trial, got)
			}
			continue
		}
		ratio := got.Float() / float64(exact.Int64())
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("trial %d: estimate %v vs exact %v (ratio %.3f)", trial, got, exact, ratio)
		}
	}
}

func TestCountAmbiguousNotRunCount(t *testing.T) {
	// buildAB accepts each word via up to n runs; the count must be the
	// number of distinct words, not runs.
	m := buildAB()
	n := 8
	exact := ExactCount(m, n) // 255
	got := Count(m, n, CountOptions{Epsilon: 0.1, Trials: 7, Seed: 3})
	ratio := got.Float() / float64(exact.Int64())
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("estimate %v vs exact %v (ratio %.3f)", got, exact, ratio)
	}
}

func TestCountZeroLanguage(t *testing.T) {
	m := New()
	q := m.AddState()
	m.SetInitial(q)
	// No finals: language empty.
	if got := Count(m, 3, CountOptions{Seed: 1}); !got.IsZero() {
		t.Errorf("Count of empty language = %v", got)
	}
}

func TestSampleWordInLanguage(t *testing.T) {
	m := buildAB()
	opts := CountOptions{Epsilon: 0.2, Seed: 9}
	for i := 0; i < 50; i++ {
		w := SampleWord(m, 5, opts)
		if w == nil {
			t.Fatal("nil sample from non-empty language")
		}
		if len(w) != 5 {
			t.Fatalf("sample length %d", len(w))
		}
		if !m.Accepts(w) {
			t.Errorf("sampled word %s not in language", m.WordString(w))
		}
	}
}

func TestSampleWordApproxUniform(t *testing.T) {
	// Language: words of length 3 over {a,b} with ≥1 a → 7 words.
	m := buildAB()
	opts := CountOptions{Epsilon: 0.1, Samples: 200, Seed: 11}
	counts := make(map[string]int)
	draws := 1400
	for i := 0; i < draws; i++ {
		opts.Seed = int64(i + 1)
		w := SampleWord(m, 3, opts)
		if w == nil {
			t.Fatal("nil sample")
		}
		counts[m.WordString(w)]++
	}
	if len(counts) != 7 {
		t.Fatalf("support size %d, want 7: %v", len(counts), counts)
	}
	for w, c := range counts {
		frac := float64(c) / float64(draws)
		if frac < 0.05 || frac > 0.30 {
			t.Errorf("word %s drawn with frequency %.3f, want ≈ 1/7", w, frac)
		}
	}
}

func TestSampleWordEmpty(t *testing.T) {
	m := New()
	q := m.AddState()
	m.SetInitial(q)
	if w := SampleWord(m, 2, CountOptions{Seed: 1}); w != nil {
		t.Errorf("sample from empty language = %v", w)
	}
}

// Property: the FPRAS is within a generous envelope of the exact count
// across random automata (seeded, hence deterministic).
func TestQuickCountEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping sampling-heavy property test in -short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomNFA(rng)
		n := 1 + rng.Intn(6)
		exact := ExactCount(m, n)
		got := Count(m, n, CountOptions{Epsilon: 0.2, Trials: 5, Seed: seed + 1})
		if exact.Sign() == 0 {
			return got.IsZero()
		}
		ratio := got.Float() / float64(exact.Int64())
		return ratio > 0.55 && ratio < 1.45
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCountParallelMatchesSequential(t *testing.T) {
	m := buildAB()
	seq := Count(m, 8, CountOptions{Epsilon: 0.1, Trials: 5, Seed: 42})
	par := Count(m, 8, CountOptions{Epsilon: 0.1, Trials: 5, Seed: 42, MaxProcs: 5})
	if seq.Cmp(par) != 0 {
		t.Errorf("parallel %v != sequential %v with the same seed", par, seq)
	}
}

func TestTrimPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		m := randomNFA(rng)
		trimmed := m.Trim()
		for n := 0; n <= 5; n++ {
			got, want := ExactCount(trimmed, n), ExactCount(m, n)
			if got.Cmp(want) != 0 {
				t.Fatalf("trial %d size %d: trimmed %v != %v", trial, n, got, want)
			}
		}
		if trimmed.NumStates() > m.NumStates() {
			t.Errorf("Trim grew the automaton")
		}
	}
}

func TestTrimDropsDeadStates(t *testing.T) {
	m := New()
	q := m.AddState()
	dead := m.AddState() // unreachable
	sink := m.AddState() // reachable but not co-reachable
	f := m.AddState()
	m.AddTransition(q, "a", f)
	m.AddTransition(q, "a", sink)
	m.AddTransition(dead, "a", f)
	m.SetInitial(q)
	m.SetFinal(f)
	trimmed := m.Trim()
	if trimmed.NumStates() != 2 {
		t.Errorf("trimmed to %d states, want 2", trimmed.NumStates())
	}
}
