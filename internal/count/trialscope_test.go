package count

import (
	"testing"

	"pqe/internal/nfta"
	"pqe/internal/obs"
)

// Runs are trial-scoped: a call snapshots each trial's effort counters
// and hands the run back to the plan's pool as soon as the trial ends,
// so a sequential call never holds more than one run. The counter
// values are pinned from the call-scoped trial loop that kept every run
// alive until the registry flush; the snapshot must reproduce them.
func TestTrialScopedRuns(t *testing.T) {
	cases := []struct {
		name   string
		call   func(a *nfta.NFTA, opts Options) error
		counts map[string]int64
	}{
		{"Trees", func(a *nfta.NFTA, opts Options) error {
			Trees(a, 9, opts)
			return nil
		}, map[string]int64{"memo_hits": 70, "memo_misses": 85, "union_samples": 11250, "accept_checks": 290236, "trials": 5}},
		{"TreesRange", func(a *nfta.NFTA, opts Options) error {
			_, err := TreesRange(a, 9, opts, 1, 4)
			return err
		}, map[string]int64{"memo_hits": 42, "memo_misses": 51, "union_samples": 6750, "accept_checks": 175938, "trials": 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ambiguous()
			reg := obs.NewRegistry()
			opts := Options{Epsilon: 0.2, Trials: 5, Seed: 7, MaxProcs: 1, Obs: obs.NewScope(nil, reg, nil)}
			if err := tc.call(a, opts); err != nil {
				t.Fatal(err)
			}
			pl, _ := planFor(a)
			if n, _ := pl.Pooled(); n > 1 {
				t.Errorf("plan pool holds %d runs after a MaxProcs 1 call, want ≤ 1", n)
			}
			for name, want := range tc.counts {
				if got := reg.Counter("countnfta_" + name + "_total").Value(); got != want {
					t.Errorf("countnfta_%s_total = %d, want %d", name, got, want)
				}
			}
		})
	}
}
