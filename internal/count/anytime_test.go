package count

import (
	"testing"

	"pqe/internal/nfta"
	"pqe/internal/obs"
)

// Anytime runs must return bit-identical estimates at every worker
// count: batch boundaries are a pure function of (ε, δ, Trials) and the
// per-trial estimates, never of scheduling.
func TestTreesAnytimeDeterministicAcrossWorkers(t *testing.T) {
	for name, a := range map[string]*nfta.NFTA{
		"ambiguous":    ambiguous(),
		"heavyOverlap": heavyOverlap(),
		"fullBinary":   fullBinary(),
	} {
		n := 9
		base := Trees(a, n, Options{Epsilon: 0.1, Trials: 9, Seed: 42, Anytime: true})
		for _, procs := range []int{1, 4, 8} {
			got := Trees(a, n, Options{Epsilon: 0.1, Trials: 9, Seed: 42, Anytime: true, MaxProcs: procs})
			if base.Cmp(got) != 0 {
				t.Errorf("%s: MaxProcs=%d anytime gave %v, sequential %v", name, procs, got, base)
			}
		}
	}
}

// An anytime call never runs more trials than the fixed schedule
// (Trials is a hard cap), and an early stop is visible in the
// trials-saved counters.
func TestTreesAnytimeTrialBudget(t *testing.T) {
	a := chains() // deterministic language: every trial is exact, so trials agree immediately
	reg := obs.NewRegistry()
	sc := obs.NewScope(nil, reg, nil)
	Trees(a, 8, Options{Epsilon: 0.1, Trials: 15, Seed: 1, Anytime: true, Obs: sc})
	executed := reg.Counter("countnfta_trials_total").Value()
	saved := reg.Counter("countnfta_trials_saved_total").Value()
	if executed+saved != 15 {
		t.Fatalf("executed %d + saved %d != cap 15", executed, saved)
	}
	if executed > 15 {
		t.Fatalf("anytime ran %d trials, cap 15", executed)
	}
	// A deterministic language agrees after the floor: δ=0.1 → 3 trials.
	if executed != 3 {
		t.Errorf("deterministic language executed %d trials, want floor 3", executed)
	}
	if saved != 12 {
		t.Errorf("trials saved %d, want 12", saved)
	}
	if v := reg.Counter("countnfta_anytime_stops_total").Value(); v != 1 {
		t.Errorf("anytime stops %d, want 1", v)
	}
}

// When the floor reaches the cap, anytime runs the full schedule and
// matches the fixed schedule exactly — same trials, same seeds, same
// median. Trials 3 is the default floor, so floor = cap.
func TestTreesAnytimeCapMatchesFixed(t *testing.T) {
	a := heavyOverlap()
	n := 9
	fixed := Trees(a, n, Options{Epsilon: 0.1, Trials: 3, Seed: 42})
	reg := obs.NewRegistry()
	any := Trees(a, n, Options{Epsilon: 0.1, Trials: 3, Seed: 42, Anytime: true, Obs: obs.NewScope(nil, reg, nil)})
	if fixed.Cmp(any) != 0 {
		t.Errorf("anytime-at-cap %v differs from fixed %v", any, fixed)
	}
	if got := reg.Counter("countnfta_trials_total").Value(); got != 3 {
		t.Errorf("anytime at cap ran %d trials, want 3", got)
	}
}

// The anytime median is the upper median over executed trials, each of
// which is bit-identical to the corresponding fixed-schedule trial — so
// the estimate stays within the engine's accuracy envelope.
func TestTreesAnytimeWithinEnvelope(t *testing.T) {
	a := fullBinary()
	// Catalan(4) = 14 trees of size 9 (4 internal f-nodes).
	got := Trees(a, 9, Options{Epsilon: 0.1, Trials: 9, Seed: 7, Anytime: true}).Float()
	if got < 14*0.7 || got > 14/0.7 {
		t.Errorf("anytime estimate %v far from exact 14", got)
	}
}
