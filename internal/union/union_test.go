package union

import (
	"testing"

	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/splitmix"
)

// toyRun and toySampler are the smallest engine the harness can run:
// every trial estimates the union of two branches of size 7 whose
// overlap samples are all fresh (14), and reports its seed's parity as
// its first memo key count.
type toyRun struct {
	Run[*toyRun, *toySampler]
}

func (r *toyRun) Reset() {}

func (r *toyRun) Count(n int) efloat.E {
	size := func(int) efloat.E { return efloat.FromInt(7) }
	return r.Union([]int{0, 1}, n, size, func(int) uint64 { return 0 })
}

func (r *toyRun) Keys() [2]int { return [2]int{int(r.Seed & 1), 0} }

type toySampler struct {
	Effort
	r *toyRun
}

func (s *toySampler) Bind(r *toyRun)                       { s.r = r }
func (s *toySampler) BindTop(r *toyRun, _ splitmix.Stream) { s.r = r }

func (s *toySampler) CountFresh(_ []int, _, _ int, _ uint64, lo, hi int) int {
	s.AcceptChecks += hi - lo
	return hi - lo
}

var toyKind = NewKind("eng", "toy", "eng.count", [2]string{"a_keys", "b_keys"}, "interned")

func toyPlan() *Plan[*toyRun, *toySampler] {
	p := &Plan[*toyRun, *toySampler]{}
	p.Init(toyKind, 3, 11, func() *toyRun { return &toyRun{} }, func() *toySampler { return &toySampler{} })
	return p
}

// The harness runs each trial on its own seed, records one convergence
// record per executed trial, and flushes the engine's effort counters
// and the engine-independent ones — with the saved trials only for a
// driven call.
func TestCallHarness(t *testing.T) {
	reg := obs.NewRegistry()
	conv := obs.NewConvergence()
	opts := Options{Trials: 9, Seed: 3, Samples: 4, Anytime: true, MaxProcs: 2, Obs: obs.NewScope(nil, reg, conv)}
	seeds := opts.schedule().Seeds()
	p := toyPlan()
	res := p.Estimate(true, 5, opts)
	if res.Executed != 3 || res.Saved != 6 || res.Value.Cmp(efloat.FromInt(14)) != 0 {
		t.Fatalf("agreeing trials: %+v, want 3 executed of value 14", res)
	}
	if n := len(conv.Snapshot()); n != 3 {
		t.Errorf("%d convergence records, want 3", n)
	}
	parity := int64(0)
	for _, s := range seeds[:3] {
		parity += s & 1
	}
	for name, want := range map[string]int64{
		"eng_calls_total": 1, "eng_trials_total": 3, "eng_trials_saved_total": 6,
		"eng_anytime_stops_total": 1, "eng_plan_cache_hits_total": 1,
		"eng_a_keys_total": parity, "eng_memo_misses_total": parity,
		"eng_union_samples_total": 12, "eng_accept_checks_total": 12,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("eng_interned").Value(); got != 11 {
		t.Errorf("eng_interned = %v, want 11", got)
	}

	// A range call records no saved trials and runs the trials' own
	// seeds.
	reg = obs.NewRegistry()
	opts.Obs, opts.Anytime = obs.NewScope(nil, reg, nil), false
	vals, err := p.Range(false, 5, opts, 2, 5)
	if err != nil || len(vals) != 3 {
		t.Fatalf("range [2, 5) returned %d estimates, %v", len(vals), err)
	}
	if got := reg.Counter("eng_trials_saved_total").Value(); got != 0 {
		t.Errorf("range call saved %d trials", got)
	}
	if got := reg.Counter("eng_plan_cache_misses_total").Value(); got != 1 {
		t.Errorf("plan cache misses %d, want 1", got)
	}
	parity = 0
	for _, s := range seeds[2:5] {
		parity += s & 1
	}
	if got := reg.Counter("eng_a_keys_total").Value(); got != parity {
		t.Errorf("range keys %d, want the parity sum %d of trials 2..4's seeds", got, parity)
	}
	if _, err := p.Range(false, 5, opts, 4, 10); err == nil {
		t.Error("range past the schedule accepted")
	}
}

// A sequential call holds at most one run, and every sampler it took
// goes back to the pool zeroed and unbound.
func TestPoolsRecycle(t *testing.T) {
	p := toyPlan()
	p.Estimate(false, 5, Options{Trials: 4, Samples: 8, MaxProcs: 1})
	runs, smps := p.Pooled()
	if runs != 1 || smps != 1 {
		t.Fatalf("pool holds %d runs and %d samplers after a MaxProcs 1 call, want 1 and 1", runs, smps)
	}
	s := p.getSampler()
	if s.r != nil || s.Effort != (Effort{}) {
		t.Errorf("pooled sampler still bound or counting: %+v", s)
	}
	var top *toySampler
	p.Warm(5, Options{}, func(r *toyRun, v efloat.E) {
		top = r.TopSampler()
		if top.r != r || r.TopSampler() != top {
			t.Error("top sampler not bound to its run, or not persistent")
		}
	})
	if top.r != nil {
		t.Error("top sampler still bound after Warm")
	}
}
