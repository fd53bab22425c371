package nfa

import (
	"math/rand"
	"sync"
	"testing"

	"pqe/internal/obs"
)

// Plan caching contract: the first call on an automaton builds the
// plan, every later call (and session) reuses it, and a structural
// mutation invalidates it. Pinned through the registry counters so the
// behavior stays observable.
func TestPlanCacheReuse(t *testing.T) {
	m := buildAB()
	reg := obs.NewRegistry()
	sc := obs.NewScope(nil, reg, nil)
	opts := CountOptions{Epsilon: 0.2, Trials: 2, Seed: 3, Obs: sc}
	Count(m, 6, opts)
	if h, mi := reg.Counter("countnfa_plan_cache_hits_total").Value(),
		reg.Counter("countnfa_plan_cache_misses_total").Value(); h != 0 || mi != 1 {
		t.Fatalf("first call: hits=%d misses=%d, want 0/1", h, mi)
	}
	Count(m, 6, opts)
	Count(m, 8, opts)
	if h, mi := reg.Counter("countnfa_plan_cache_hits_total").Value(),
		reg.Counter("countnfa_plan_cache_misses_total").Value(); h != 2 || mi != 1 {
		t.Fatalf("after reuse: hits=%d misses=%d, want 2/1", h, mi)
	}
}

func TestPlanRebuildAfterMutation(t *testing.T) {
	m := buildAB()
	reg := obs.NewRegistry()
	sc := obs.NewScope(nil, reg, nil)
	opts := CountOptions{Epsilon: 0.2, Trials: 2, Seed: 3, Obs: sc}
	Count(m, 6, opts)
	q := m.AddState()
	m.AddTransition(0, "c", q)
	m.SetFinal(q)
	Count(m, 6, opts)
	if mi := reg.Counter("countnfa_plan_cache_misses_total").Value(); mi != 2 {
		t.Fatalf("mutation did not invalidate the plan: misses=%d, want 2", mi)
	}
}

// Concurrent sessions over one automaton share the plan; run under
// -race this pins that the shared half really is immutable and the
// pooled halves are handed out safely.
func TestConcurrentSessionsSharePlan(t *testing.T) {
	m := buildAB()
	base := Count(m, 8, CountOptions{Epsilon: 0.2, Trials: 2, Seed: 9})
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got := Count(m, 8, CountOptions{Epsilon: 0.2, Trials: 2, Seed: 9, MaxProcs: 1 + g%3})
				if got.Cmp(base) != 0 {
					errs[g] = got.String()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d: concurrent estimate %s, want %s", g, e, base)
		}
	}
}

// The MaxProcs knob's bit-identity contract on random automata.
func TestCountDeterministicAcrossMaxProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 6; trial++ {
		m := randomNFA(rng)
		n := 2 + rng.Intn(6)
		base := Count(m, n, CountOptions{Epsilon: 0.2, Trials: 3, Seed: 11})
		for _, procs := range []int{1, 2, 3, 8} {
			got := Count(m, n, CountOptions{Epsilon: 0.2, Trials: 3, Seed: 11, MaxProcs: procs})
			if got.Cmp(base) != 0 {
				t.Fatalf("trial %d: MaxProcs=%d gave %v, want %v", trial, procs, got, base)
			}
		}
	}
}
