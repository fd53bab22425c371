package nfa

import (
	"math/rand"
	"testing"

	"pqe/internal/obs"
)

// Anytime estimates must be bit-identical at every worker count: the
// batch boundaries and the stop decision depend only on (ε, δ, Trials)
// and the per-trial estimates, never on scheduling.
func TestCountAnytimeDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		m := randomNFA(rng)
		n := 2 + rng.Intn(6)
		base := Count(m, n, CountOptions{Epsilon: 0.15, Trials: 9, Seed: 7, Anytime: true})
		for _, procs := range []int{1, 2, 8} {
			got := Count(m, n, CountOptions{
				Epsilon: 0.15, Trials: 9, Seed: 7, Anytime: true, MaxProcs: procs,
			})
			if got.Cmp(base) != 0 {
				t.Fatalf("trial %d: MaxProcs=%d anytime gave %v, want %v",
					trial, procs, got, base)
			}
		}
	}
}

// Trials is a hard cap for an anytime call, and early stops show up in
// the trials-saved counters. buildAB's estimates are sampling-based but
// tightly concentrated, so with ε=0.2 the agreement certificate fires
// at the δ-derived floor.
func TestCountAnytimeTrialBudget(t *testing.T) {
	m := buildAB()
	reg := obs.NewRegistry()
	sc := obs.NewScope(nil, reg, nil)
	Count(m, 6, CountOptions{Epsilon: 0.2, Trials: 15, Seed: 1, Anytime: true, Obs: sc})
	executed := reg.Counter("countnfa_trials_total").Value()
	saved := reg.Counter("countnfa_trials_saved_total").Value()
	if executed+saved != 15 {
		t.Fatalf("executed %d + saved %d != cap 15", executed, saved)
	}
	if executed > 15 {
		t.Fatalf("anytime ran %d trials, cap 15", executed)
	}
	if saved > 0 {
		if v := reg.Counter("countnfa_anytime_stops_total").Value(); v != 1 {
			t.Errorf("saved %d trials but anytime stops = %d", saved, v)
		}
	}
}

// Trials 3 puts the default floor at the cap, which pins the full
// fixed schedule: the anytime call must then reproduce the fixed call
// bit for bit (same seeds, same trials, same median).
func TestCountAnytimeCapMatchesFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		m := randomNFA(rng)
		n := 2 + rng.Intn(5)
		fixed := Count(m, n, CountOptions{Epsilon: 0.15, Trials: 3, Seed: 42})
		reg := obs.NewRegistry()
		any := Count(m, n, CountOptions{Epsilon: 0.15, Trials: 3, Seed: 42, Anytime: true, Obs: obs.NewScope(nil, reg, nil)})
		if fixed.Cmp(any) != 0 {
			t.Fatalf("trial %d: anytime-at-cap %v differs from fixed %v", trial, any, fixed)
		}
		if got := reg.Counter("countnfa_trials_total").Value(); got != 3 {
			t.Fatalf("trial %d: anytime at cap ran %d trials, want 3", trial, got)
		}
	}
}

// Anytime estimates stay inside the accuracy envelope checked for the
// fixed schedule: against brute-force counts on random automata.
func TestCountAnytimeMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m := randomNFA(rng)
		n := 2 + rng.Intn(5)
		exact := bruteCount(m, n)
		got := Count(m, n, CountOptions{Epsilon: 0.1, Trials: 9, Seed: int64(trial + 1), Anytime: true}).Float()
		if exact == 0 {
			if got != 0 {
				t.Errorf("trial %d: exact 0, anytime %v", trial, got)
			}
			continue
		}
		lo, hi := float64(exact)*0.6, float64(exact)/0.6
		if got < lo || got > hi {
			t.Errorf("trial %d: anytime %v outside [%v, %v] (exact %d)", trial, got, lo, hi, exact)
		}
	}
}
