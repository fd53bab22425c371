package trial

import (
	"testing"

	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/sched"
)

// samples is a test Effort: the trial's seed parity as its sample count.
type samples int

func (s samples) UnionSamples() int { return int(s) }

// The harness runs each trial on its own seed, records one convergence
// record per executed trial, and Close flushes the engine-independent
// counters — with the saved trials only for a driven call.
func TestCallHarness(t *testing.T) {
	reg := obs.NewRegistry()
	conv := obs.NewConvergence()
	s := Schedule{Trials: 9, Seed: 3, Anytime: true}.Resolve()
	seeds := s.Seeds()
	body := func(w *sched.Worker, seed int64) (efloat.E, samples) {
		return efloat.FromInt(7), samples(seed & 1)
	}
	c := Open(obs.NewScope(nil, reg, conv), CallConfig{Engine: "eng", Span: "eng.count", Schedule: s, Procs: 2}, body)
	res, err := Run(nil, s, c.Exec)
	if err != nil {
		t.Fatal(err)
	}
	c.Close(true, &res)
	if res.Executed != 3 || res.Saved != 6 || len(c.Trials) != 3 {
		t.Fatalf("agreeing trials: %+v with %d snapshots, want 3 executed", res, len(c.Trials))
	}
	for i, ts := range c.Trials {
		if want := samples(seeds[i] & 1); ts != want {
			t.Errorf("trial %d snapshot %d, want %d (its own seed's)", i, ts, want)
		}
	}
	if n := len(conv.Snapshot()); n != 3 {
		t.Errorf("%d convergence records, want 3", n)
	}
	for name, want := range map[string]int64{
		"eng_calls_total": 1, "eng_trials_total": 3, "eng_trials_saved_total": 6,
		"eng_anytime_stops_total": 1, "eng_plan_cache_hits_total": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// A range call records no saved trials.
	reg = obs.NewRegistry()
	c = Open(obs.NewScope(nil, reg, nil), CallConfig{Engine: "eng", Span: "eng.range", Schedule: s, Procs: 1}, body)
	if vals, _ := c.Exec(2, 5); len(vals) != 3 {
		t.Fatalf("range [2, 5) returned %d estimates", len(vals))
	}
	c.Close(false, nil)
	if got := reg.Counter("eng_trials_saved_total").Value(); got != 0 {
		t.Errorf("range call saved %d trials", got)
	}
	if got := reg.Counter("eng_plan_cache_misses_total").Value(); got != 1 {
		t.Errorf("plan cache misses %d, want 1", got)
	}
}
