package nfa

import (
	"math/rand"
	"testing"

	"pqe/internal/obs"
)

// The determinism contract of the string engine: for a fixed seed the
// estimate is byte-identical at every MaxProcs setting,
// because every overlap sample draws from its own sub-RNG derived from
// (trial seed, site, sample index), independent of how samples are
// partitioned across goroutines.
func TestCountDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		m := randomNFA(rng)
		n := 2 + rng.Intn(6)
		base := Count(m, n, CountOptions{Epsilon: 0.15, Trials: 3, Seed: 7})
		for _, procs := range []int{1, 2, 3, 8} {
			got := Count(m, n, CountOptions{Epsilon: 0.15, Trials: 3, Seed: 7, MaxProcs: procs})
			if got.Cmp(base) != 0 {
				t.Fatalf("trial %d: MaxProcs=%d gave %v, want %v", trial, procs, got, base)
			}
		}
	}
}

// SampleWord must also be deterministic in the worker count: the
// top-level sampling stream is salted away from the overlap-sampling
// streams, so the drawn word depends only on the seed.
func TestSampleWordDeterministicAcrossWorkers(t *testing.T) {
	m := buildAB()
	base := SampleWord(m, 6, CountOptions{Epsilon: 0.2, Seed: 13})
	if base == nil {
		t.Fatal("nil sample from non-empty language")
	}
	for _, procs := range []int{2, 8} {
		got := SampleWord(m, 6, CountOptions{Epsilon: 0.2, Seed: 13, MaxProcs: procs})
		if len(got) != len(base) {
			t.Fatalf("MaxProcs=%d sample %v, want %v", procs, got, base)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("MaxProcs=%d sample %v, want %v", procs, got, base)
			}
		}
	}
}

// The countnfa_* counters must report the work done and, for a
// deterministic engine, the same sampling effort at every worker count.
func TestCountStats(t *testing.T) {
	m := buildAB()
	effort := func(procs int) map[string]int64 {
		reg := obs.NewRegistry()
		Count(m, 8, CountOptions{Epsilon: 0.1, Trials: 3, Seed: 42, MaxProcs: procs, Obs: obs.NewScope(nil, reg, nil)})
		out := map[string]int64{}
		for _, name := range []string{"word_keys", "union_keys", "union_samples", "rejections", "wall_ns"} {
			out[name] = reg.Counter("countnfa_" + name + "_total").Value()
		}
		return out
	}
	s1, s8 := effort(1), effort(8)
	if s1["word_keys"] == 0 || s1["union_samples"] == 0 {
		t.Fatalf("effort not recorded: %v", s1)
	}
	for _, name := range []string{"word_keys", "union_keys", "union_samples", "rejections"} {
		if s1[name] != s8[name] {
			t.Errorf("worker count changed countnfa_%s_total: %d vs %d", name, s1[name], s8[name])
		}
	}
	if s1["wall_ns"] <= 0 {
		t.Errorf("countnfa_wall_ns_total not recorded: %d", s1["wall_ns"])
	}
}

// Counting must be a function of the automaton's structure, not of its
// construction history or of map iteration order: two structurally
// identical automata (with independently built dense indexes) must give
// byte-identical estimates for the same seed. This pins the ordered
// interning of target sets in the index (set IDs seed the per-cell RNG
// streams).
func TestCountDeterministicAcrossRebuilds(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng1 := rand.New(rand.NewSource(int64(1000 + trial)))
		rng2 := rand.New(rand.NewSource(int64(1000 + trial)))
		m1, m2 := randomNFA(rng1), randomNFA(rng2)
		n := 2 + trial%5
		opts := CountOptions{Epsilon: 0.15, Trials: 3, Seed: 21}
		a, b := Count(m1, n, opts), Count(m2, n, opts)
		if a.Cmp(b) != 0 {
			t.Fatalf("trial %d: identical automata counted differently: %v vs %v", trial, a, b)
		}
	}
}
