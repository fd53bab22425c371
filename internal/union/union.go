// Package union is the engine-independent half of the union estimator
// of Arenas, Croquevielle, Jayaram and Riveros ("When is approximate
// counting for conjunctive queries tractable?", STOC 2021), the black
// box Theorems 1–3 of the paper invoke. Two engines run it: CountNFTA
// over trees (internal/count) and CountNFA over words (internal/nfa).
// They differ only in what a member of a branch language is and how
// membership is tested.
//
// This package owns everything around those kernels, once: Options and
// its schedule; the estimate, range and sample entry points with their
// span, trial driver (internal/trial) and registry flush; the plan's
// pools of runs and samplers; and the union-cell estimate (Run.Union)
// with its overlap-sampling dispatch. An engine plugs in three layers:
// an immutable plan per automaton embedding Plan, a per-trial run of
// memo tables and prefix rows embedding Run (Runner), and plan-scoped
// samplers embedding Effort (Sampler). It keeps its automaton, plan
// geometry, memo tables, prefix rows, sampler kernels and sampling-site
// rule.
//
// Trials and overlap-sample chunks share one work-stealing scheduler
// (internal/sched), and every sample draws from its own sub-stream
// derived from (trial seed, site, sample index) (internal/splitmix), so
// results are bit-identical for a fixed seed at every worker count.
package union

import (
	"context"
	"fmt"
	"time"

	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/sched"
	"pqe/internal/trial"
)

// Options configures one counting call of either engine. The zero value
// gets sensible defaults.
type Options struct {
	// Epsilon, Trials, Samples, Seed, Anytime and Delta are the call's
	// trial schedule; trial.Schedule documents each and its default.
	// Epsilon is the target relative error of a single trial, and the
	// call returns the median of the trials.
	Epsilon float64
	Trials  int
	Samples int
	Seed    int64
	Anytime bool
	Delta   float64
	// MaxProcs bounds the workers of the call's unified scheduler, which
	// dispatches whole trials and, within them, chunks of the
	// overlap-sampling loops (work-stealing, so a straggler trial never
	// leaves workers idle). 0 means 1; every setting returns
	// bit-identical results for a fixed seed.
	MaxProcs int
	// Obs, when non-nil, receives the unified telemetry of every call:
	// a call span (count.trees, count.nfa, or their _range forms) with
	// per-trial child spans, the engine's registry counters (countnfta_*
	// or countnfa_*: memo hits/misses, interner sizes, acceptance
	// checks, plan-cache hits, scheduler steal/queue gauges), and
	// per-trial convergence records. A nil Scope disables all of it at
	// the cost of a pointer test.
	Obs *obs.Scope
	// Ctx, when non-nil, lets callers cancel a call mid-sampling:
	// cancellation is observed at every trial-batch boundary, before each
	// queued trial starts, and before each overlap-sampling dispatch, so
	// a cancelled call abandons its remaining work within one batch. The
	// value a call returns after a cancellation is meaningless — callers
	// must check Ctx.Err() and discard it (internal/core does). A nil Ctx
	// (the default) never cancels and adds no per-sample cost.
	Ctx context.Context
}

// schedule is the call's trial schedule, defaulted.
func (o Options) schedule() trial.Schedule {
	return trial.Schedule{
		Epsilon: o.Epsilon,
		Trials:  o.Trials,
		Samples: o.Samples,
		Seed:    o.Seed,
		Anytime: o.Anytime,
		Delta:   o.Delta,
	}.Resolve()
}

func (o Options) withDefaults() Options {
	s := o.schedule()
	o.Epsilon, o.Trials, o.Samples, o.Seed = s.Epsilon, s.Trials, s.Samples, s.Seed
	o.MaxProcs = max(o.MaxProcs, 1)
	return o
}

// ResolveSchedule reports the resolved trial schedule of a call with
// these options: the defaulted (epsilon, trials, samples) triple. A
// shard coordinator ships the resolved values to its workers so every
// process runs the exact schedule the local call would, regardless of
// which side applied the defaults.
func (o Options) ResolveSchedule() (epsilon float64, trials, samples int) {
	s := o.schedule()
	return s.Epsilon, s.Trials, s.Samples
}

// Kind names one engine's telemetry: its registry prefix and pprof
// label, its call span and its effort counters. Build one per engine
// with NewKind.
type Kind struct {
	engine          string
	pkg             string // error-message prefix
	span, rangeSpan string
	labels          []string
	// Registry names of the effort counters, in end's flush order, of
	// the interned-structure gauge and of the per-call metrics, built
	// once so a flush concatenates nothing.
	effort [7]string
	gauge  string
	names  callNames
}

// callNames are the registry names of the per-call metrics end flushes.
type callNames struct {
	calls, trials, spawns, busyNs, wallNs, planHits, planMisses,
	batches, chunks, steals, queueDepth, seconds, saved, stops string
}

// NewKind describes an engine: its registry prefix and pprof label
// ("countnfta"), its package name for error messages ("count"), its
// call span ("count.trees"; range calls append "_range"), the names of
// its runs' two memo key counters ("tree_keys", "forest_keys") and of
// the gauge reporting its plan's interned-structure count
// ("interned_tuples").
func NewKind(engine, pkg, span string, keys [2]string, gauge string) *Kind {
	p := engine + "_"
	return &Kind{
		engine:    engine,
		pkg:       pkg,
		span:      span,
		rangeSpan: span + "_range",
		labels:    []string{"pqe_engine", engine, "pqe_stage", "trial"},
		effort: [7]string{p + keys[0] + "_total", p + keys[1] + "_total", p + "memo_hits_total",
			p + "memo_misses_total", p + "union_samples_total", p + "rejections_total", p + "accept_checks_total"},
		gauge: p + gauge,
		names: callNames{
			calls: p + "calls_total", trials: p + "trials_total",
			spawns: p + "worker_spawns_total", busyNs: p + "worker_busy_ns_total",
			wallNs: p + "wall_ns_total", planHits: p + "plan_cache_hits_total",
			planMisses: p + "plan_cache_misses_total", batches: p + "sched_batches_total",
			chunks: p + "sched_chunks_total", steals: p + "sched_steals_total",
			queueDepth: p + "sched_queue_depth", seconds: p + "call_seconds",
			saved: p + "trials_saved_total", stops: p + "anytime_stops_total",
		},
	}
}

// Estimate runs the options' trial schedule over the plan at size n and
// returns the median with the trial driver's accounting: how many trials
// ran and how many the anytime certificate saved. hit reports whether
// the engine found the plan cached.
func (p *Plan[R, S]) Estimate(hit bool, n int, opts Options) trial.Result {
	opts = opts.withDefaults()
	c := p.open(hit, n, opts, p.kind.span)
	// Exec never fails: a cancelled trial just leaves a zero estimate.
	res, _ := trial.Run(opts.Ctx, c.sched, c.exec)
	c.end(&res)
	return res
}

// Range executes trials [lo, hi) of the fixed Trials schedule and
// returns their estimates in trial order. Trial t's seed is the trial
// driver's t-th seed — exactly the seed Estimate would hand the same
// trial — so the returned estimates are bit-identical to the
// corresponding slice of a local call, no matter how the full range is
// partitioned across calls or processes. The caller (the shard
// coordinator, via internal/core) owns the median merge and the anytime
// batch boundaries.
func (p *Plan[R, S]) Range(hit bool, n int, opts Options, lo, hi int) ([]efloat.E, error) {
	opts = opts.withDefaults()
	if lo < 0 || hi < lo || hi > opts.Trials {
		return nil, fmt.Errorf("%s: trial range [%d, %d) outside schedule [0, %d)", p.kind.pkg, lo, hi, opts.Trials)
	}
	if hi == lo {
		return nil, nil
	}
	c := p.open(hit, n, opts, p.kind.rangeSpan)
	if c.span != nil {
		c.span.SetAttr("trial_lo", lo)
		c.span.SetAttr("trial_hi", hi)
	}
	vals, _ := c.exec(lo, hi)
	c.end(nil)
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, opts.Ctx.Err()
	}
	return vals, nil
}

// Warm runs the first trial of the options' schedule at size n — the
// estimation pass only — on one scheduler worker, and calls use there
// with the warm run and its top-level estimate. The engines' sample
// entry points draw inside use through the run's TopSampler; the run
// goes back to the pool when use returns.
func (p *Plan[R, S]) Warm(n int, opts Options, use func(r R, v efloat.E)) {
	opts = opts.withDefaults()
	c := p.newCall(opts.MaxProcs)
	seed := trial.Schedule{Trials: 1, Seed: opts.Seed}.Seeds()[0]
	sched.Run(sched.Config{Procs: opts.MaxProcs, Trials: 1, Labels: p.kind.labels}, func(w *sched.Worker, _ int) {
		r := p.getRun(opts, seed, w, c)
		use(r, r.Count(n))
		p.putRun(r)
	})
	p.releaseCall(c)
}

// counting is one Estimate or Range call: the call span the trial spans
// nest under, the per-trial convergence records, the scheduler effort,
// the executed trials' effort snapshots and the worker samplers the
// trials share.
type counting[R Runner[R, S], S Sampler[R]] struct {
	pl     *Plan[R, S]
	hit    bool
	call   *call[R, S]
	opts   Options
	sched  trial.Schedule
	n      int
	sc     *obs.Scope // the call span's scope
	span   *obs.Span
	seeds  []int64
	conv   *obs.Convergence
	callID int64
	start  time.Time
	st     sched.Stats // every batch's scheduler statistics
	// trials holds the executed trials' effort snapshots, in trial
	// order; a trial skipped by cancellation keeps the zero value.
	trials []stats
}

// open starts one counting call under span name.
func (p *Plan[R, S]) open(hit bool, n int, opts Options, name string) *counting[R, S] {
	s := opts.schedule()
	sc, span := opts.Obs.Span(name)
	if span != nil {
		span.SetAttr("n", n)
		span.SetAttr("states", p.states)
		span.SetAttr("trials", s.Trials)
		span.SetAttr("epsilon", s.Epsilon)
		span.SetAttr("workers", opts.MaxProcs)
	}
	c := &counting[R, S]{pl: p, hit: hit, call: p.newCall(opts.MaxProcs), opts: opts, sched: s, n: n,
		sc: sc, span: span, seeds: s.Seeds(), conv: sc.Convergence()}
	c.callID = c.conv.NextCall()
	if c.conv != nil || span != nil || sc.Registry() != nil {
		c.start = time.Now()
	}
	return c
}

// exec is the call's trial.Exec: it runs trials [lo, hi) as one
// scheduler pass. Each trial checks cancellation, opens a span,
// estimates on a pooled run — handed back as soon as its effort is
// snapshotted, so a call holds at most one run per worker — and
// records its convergence.
func (c *counting[R, S]) exec(lo, hi int) ([]efloat.E, error) {
	vals := make([]efloat.E, hi-lo)
	effort := make([]stats, hi-lo)
	st := sched.Run(sched.Config{
		Procs:  c.opts.MaxProcs,
		Trials: hi - lo,
		Timed:  c.sc.Registry() != nil,
		Labels: c.pl.kind.labels,
	}, func(w *sched.Worker, i int) {
		if c.opts.Ctx != nil && c.opts.Ctx.Err() != nil {
			return // queued after cancellation; the caller discards the call
		}
		t := lo + i
		tspan := c.span.Start("trial")
		var t0 time.Time
		if c.conv != nil || tspan != nil {
			t0 = time.Now()
		}
		r := c.pl.getRun(c.opts, c.seeds[t], w, c.call)
		vals[i] = r.Count(c.n)
		effort[i] = snapshot(r)
		c.pl.putRun(r)
		if tspan != nil {
			tspan.SetAttr("trial", t)
			tspan.SetAttr("union_samples", effort[i].unionSamples)
			tspan.End()
		}
		if c.conv != nil {
			c.conv.Record(obs.TrialRecord{
				Engine:       c.pl.kind.engine,
				Call:         c.callID,
				Trial:        t,
				Trials:       c.sched.Trials,
				Epsilon:      c.sched.Epsilon,
				Log2Estimate: trial.Log2(vals[i]),
				UnionSamples: effort[i].unionSamples,
				Elapsed:      time.Since(t0),
			})
		}
	})
	c.st.Accumulate(st)
	c.trials = append(c.trials, effort...)
	return vals, nil
}

// end returns the call's samplers to the plan, flushes the call into the
// unified metrics registry — once per call, never inside the sampling
// loops, which only bump plain per-run and per-sampler integers — and
// ends the span. res is the driven call's Result, nil for a range: its
// executed count goes on the span and its saved trials to the
// trials_saved and anytime_stops counters.
func (c *counting[R, S]) end(res *trial.Result) {
	if res != nil && c.span != nil {
		c.span.SetAttr("trials_executed", res.Executed)
	}
	rejections, acceptChecks := c.pl.releaseCall(c.call)
	if reg := c.sc.Registry(); reg != nil {
		k := c.pl.kind
		var sum stats
		for _, ts := range c.trials {
			sum.keys[0] += ts.keys[0]
			sum.keys[1] += ts.keys[1]
			sum.memoHits += ts.memoHits
			sum.unionSamples += ts.unionSamples
		}
		for i, v := range [...]int{sum.keys[0], sum.keys[1], sum.memoHits, sum.keys[0] + sum.keys[1],
			sum.unionSamples, rejections, acceptChecks} {
			reg.Counter(k.effort[i]).Add(int64(v))
		}
		reg.Gauge(k.gauge).Set(float64(c.pl.interned))

		nm := &k.names
		wall := time.Since(c.start)
		st := c.st
		reg.Counter(nm.calls).Inc()
		reg.Counter(nm.trials).Add(int64(len(c.trials)))
		reg.Counter(nm.spawns).Add(st.Spawns)
		reg.Counter(nm.busyNs).Add(st.BusyNs)
		reg.Counter(nm.wallNs).Add(wall.Nanoseconds())
		if c.hit {
			reg.Counter(nm.planHits).Inc()
		} else {
			reg.Counter(nm.planMisses).Inc()
		}
		reg.Counter(nm.batches).Add(st.Batches)
		reg.Counter(nm.chunks).Add(st.Chunks)
		reg.Counter(nm.steals).Add(st.Steals)
		reg.Gauge(nm.queueDepth).Set(float64(st.MaxQueue))
		reg.Histogram(nm.seconds).Observe(wall.Seconds())
		if res != nil {
			reg.Counter(nm.saved).Add(int64(res.Saved))
			if res.Saved > 0 {
				reg.Counter(nm.stops).Inc()
			}
		}
	}
	c.span.End()
}

// stats is one trial's effort counters, snapshotted when the trial ends
// so its run can go straight back to the plan's pool.
type stats struct {
	keys                   [2]int
	memoHits, unionSamples int
}

func snapshot[R Runner[R, S], S Sampler[R]](r R) stats {
	b := r.base()
	return stats{keys: r.Keys(), memoHits: b.MemoHits, unionSamples: b.unionSamples}
}
