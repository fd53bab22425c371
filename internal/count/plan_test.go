package count

import (
	"math/rand"
	"sync"
	"testing"

	"pqe/internal/nfta"
	"pqe/internal/obs"
)

// Plan caching contract: the first call on an automaton builds the
// plan, every later call (and session) reuses it, and a structural
// mutation invalidates it. Pinned through the registry counters so the
// behavior stays observable.
func TestPlanCacheReuse(t *testing.T) {
	a := heavyOverlap()
	reg := obs.NewRegistry()
	sc := obs.NewScope(nil, reg, nil)
	opts := Options{Epsilon: 0.2, Trials: 2, Seed: 3, Obs: sc}
	Trees(a, 6, opts)
	if h, m := reg.Counter("countnfta_plan_cache_hits_total").Value(),
		reg.Counter("countnfta_plan_cache_misses_total").Value(); h != 0 || m != 1 {
		t.Fatalf("first call: hits=%d misses=%d, want 0/1", h, m)
	}
	Trees(a, 6, opts)
	Trees(a, 8, opts)
	if h, m := reg.Counter("countnfta_plan_cache_hits_total").Value(),
		reg.Counter("countnfta_plan_cache_misses_total").Value(); h != 2 || m != 1 {
		t.Fatalf("after reuse: hits=%d misses=%d, want 2/1", h, m)
	}
}

func TestPlanRebuildAfterMutation(t *testing.T) {
	a := heavyOverlap()
	reg := obs.NewRegistry()
	sc := obs.NewScope(nil, reg, nil)
	opts := Options{Epsilon: 0.2, Trials: 2, Seed: 3, Obs: sc}
	Trees(a, 6, opts)
	s := a.AddState()
	a.AddTransition(s, "c")
	a.AddTransition(a.Initial(), "f", s)
	Trees(a, 6, opts)
	if m := reg.Counter("countnfta_plan_cache_misses_total").Value(); m != 2 {
		t.Fatalf("mutation did not invalidate the plan: misses=%d, want 2", m)
	}
}

// Concurrent sessions over one automaton share the plan; run under
// -race this pins that the shared half really is immutable and the
// pooled halves are handed out safely.
func TestConcurrentSessionsSharePlan(t *testing.T) {
	a := heavyOverlap()
	base := Trees(a, 10, Options{Epsilon: 0.2, Trials: 2, Seed: 9})
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got := Trees(a, 10, Options{Epsilon: 0.2, Trials: 2, Seed: 9, MaxProcs: 1 + g%3})
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
func TestTreesDeterministicAcrossMaxProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		a := randomNFTA(rng)
		n := 2 + rng.Intn(6)
		base := Trees(a, n, Options{Epsilon: 0.2, Trials: 3, Seed: 11})
		for _, procs := range []int{1, 2, 3, 8} {
			got := Trees(a, n, Options{Epsilon: 0.2, Trials: 3, Seed: 11, MaxProcs: procs})
			if got.Cmp(base) != 0 {
				t.Fatalf("trial %d: MaxProcs=%d gave %v, want %v", trial, procs, got, base)
			}
		}
	}
}

// treeArena growth mid-sample: nodes and child slices handed out before
// a chunk grows must stay valid (a sampled tree's parents hold pointers
// into earlier chunks).
func TestTreeArenaGrowthMidSample(t *testing.T) {
	ar := &treeArena{}
	refs := make([]*nfta.Tree, 0, 3*arenaChunk)
	for i := 0; i < 3*arenaChunk; i++ {
		refs = append(refs, ar.node(i, nil))
	}
	for i, r := range refs {
		if r.Sym != i {
			t.Fatalf("node %d corrupted after growth: Sym=%d", i, r.Sym)
		}
	}
	// Distinct allocations: the bump pointer must never hand the same
	// node out twice within a sample.
	seen := make(map[*nfta.Tree]bool, len(refs))
	for _, r := range refs {
		if seen[r] {
			t.Fatal("arena handed out the same node twice")
		}
		seen[r] = true
	}
	// Child slices crossing a refs-chunk growth keep their contents.
	ar.reset()
	slices := make([][]*nfta.Tree, 0, 64)
	for i := 0; i < 64; i++ {
		s := ar.slice(arenaChunk / 4)
		for j := range s {
			s[j] = refs[i]
		}
		slices = append(slices, s)
	}
	for i, s := range slices {
		for j := range s {
			if s[j] != refs[i] {
				t.Fatalf("slice %d entry %d corrupted after growth", i, j)
			}
		}
	}
}
