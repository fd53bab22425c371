package core

import (
	"context"
	"strings"
	"testing"
)

// TestCountTrialsErrors walks the refusals of the worker half of trial
// sharding: an unknown mode, a spec whose geometry disagrees with the
// session's automaton in either coordinate for each of the four modes,
// and a UR-only session asked for a PQE mode. Each refusal comes before
// any trial runs; each well-formed spec counts.
func TestCountTrialsErrors(t *testing.T) {
	q, h := pathInstance(t)
	full := NewEstimator(q, h, Options{})
	urOnly := NewUREstimator(q, h.DB(), Options{})
	spec := func(e *Estimator, mode string) ShardSpec {
		t.Helper()
		var ph phase
		if err := e.build(Options{}, func() (err error) {
			ph, err = e.phase(mode)
			return err
		}); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		s := ShardSpec{Mode: mode, N: ph.n, States: ph.states(), Seed: 3}
		s.Epsilon, s.Trials, s.Samples = Options{Epsilon: 0.5, Trials: 2}.countOptions(nil).ResolveSchedule()
		return s
	}
	type tcase struct {
		name string
		e    *Estimator
		spec ShardSpec
		want string // "" = the range counts
	}
	cases := []tcase{
		{"unknown mode", full, ShardSpec{Mode: "bogus", Trials: 1}, `unknown shard mode "bogus"`},
	}
	for _, mode := range []string{ShardModeUR, ShardModePQE, ShardModePath, ShardModePathPQE} {
		ok := spec(full, mode)
		badN, badStates := ok, ok
		badN.N++
		badStates.States++
		cases = append(cases,
			tcase{mode + " ok", full, ok, ""},
			tcase{mode + " N mismatch", full, badN, "shard geometry mismatch"},
			tcase{mode + " States mismatch", full, badStates, "shard geometry mismatch"},
		)
	}
	for _, mode := range []string{ShardModeUR, ShardModePath} {
		cases = append(cases, tcase{mode + " on a UR-only session", urOnly, spec(urOnly, mode), ""})
	}
	for _, mode := range []string{ShardModePQE, ShardModePathPQE} {
		s := spec(full, mode)
		cases = append(cases, tcase{mode + " on a UR-only session", urOnly, s, "built without probabilities"})
	}
	for _, c := range cases {
		ests, err := c.e.CountTrials(context.Background(), c.spec, 0, c.spec.Trials, 1, nil)
		switch {
		case c.want == "" && (err != nil || len(ests) != c.spec.Trials):
			t.Errorf("%s: (%d estimates, %v), want %d estimates", c.name, len(ests), err, c.spec.Trials)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || ests != nil):
			t.Errorf("%s: (%d estimates, %v), want an error containing %q", c.name, len(ests), err, c.want)
		}
	}
}
