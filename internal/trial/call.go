package trial

import (
	"context"
	"time"

	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/sched"
)

// Effort is one trial's engine-specific effort snapshot. The harness
// reads only its overlap-sample count, for the trial's span and
// convergence record; the engine folds the rest into its registry.
type Effort interface {
	UnionSamples() int
}

// Body runs one trial from its seed on scheduler worker w and returns
// the trial's estimate and effort snapshot.
type Body[S Effort] func(w *sched.Worker, seed int64) (efloat.E, S)

// CallConfig describes one engine counting call to its harness.
type CallConfig struct {
	// Engine is the obs engine label and registry prefix
	// ("countnfta", "countnfa").
	Engine string
	// Span names the call's span ("count.trees", "count.nfa_range", …).
	Span string
	// Schedule is the call's resolved schedule.
	Schedule Schedule
	// Procs is the scheduler width; Labels its pprof labels.
	Procs  int
	Labels []string
	// Ctx cancels queued trials (nil never cancels).
	Ctx context.Context
	// N and States describe the counted instance for the call span.
	N, States int
}

// Call is the harness one engine counting call runs its trials under:
// the call span the trial spans nest under, the per-trial convergence
// records, the scheduler effort, and the executed trials' effort
// snapshots in trial order. Its Exec is the engine's trial.Exec: Trees
// and Count pass it to Run, the range entry points call it once; Close
// flushes and ends the call.
type Call[S Effort] struct {
	Scope *obs.Scope // the call span's scope
	Span  *obs.Span
	// Trials holds the executed trials' effort snapshots, in trial
	// order; a trial skipped by cancellation keeps S's zero value.
	Trials []S

	cfg    CallConfig
	st     sched.Stats // every batch's scheduler statistics
	body   Body[S]
	seeds  []int64
	conv   *obs.Convergence
	callID int64
	start  time.Time
}

// Open starts one engine call under sc (nil disables telemetry).
func Open[S Effort](sc *obs.Scope, cfg CallConfig, body Body[S]) *Call[S] {
	sc, span := sc.Span(cfg.Span)
	if span != nil {
		span.SetAttr("n", cfg.N)
		span.SetAttr("states", cfg.States)
		span.SetAttr("trials", cfg.Schedule.Trials)
		span.SetAttr("epsilon", cfg.Schedule.Epsilon)
		span.SetAttr("workers", cfg.Procs)
	}
	c := &Call[S]{Scope: sc, Span: span, cfg: cfg, body: body, seeds: cfg.Schedule.Seeds(), conv: sc.Convergence()}
	c.callID = c.conv.NextCall()
	if c.conv != nil || span != nil || sc.Registry() != nil {
		c.start = time.Now()
	}
	return c
}

// Exec runs trials [lo, hi) as one scheduler pass. Each trial checks
// cancellation, opens a span, runs the body on its seed, and records
// its convergence.
func (c *Call[S]) Exec(lo, hi int) ([]efloat.E, error) {
	vals := make([]efloat.E, hi-lo)
	effort := make([]S, hi-lo)
	st := sched.Run(sched.Config{
		Procs:  c.cfg.Procs,
		Trials: hi - lo,
		Timed:  c.Scope.Registry() != nil,
		Labels: c.cfg.Labels,
	}, func(w *sched.Worker, i int) {
		if c.cfg.Ctx != nil && c.cfg.Ctx.Err() != nil {
			return // queued after cancellation; the caller discards the call
		}
		t := lo + i
		tspan := c.Span.Start("trial")
		var t0 time.Time
		if c.conv != nil || tspan != nil {
			t0 = time.Now()
		}
		vals[i], effort[i] = c.body(w, c.seeds[t])
		if tspan != nil {
			tspan.SetAttr("trial", t)
			tspan.SetAttr("union_samples", effort[i].UnionSamples())
			tspan.End()
		}
		if c.conv != nil {
			c.conv.Record(obs.TrialRecord{
				Engine:       c.cfg.Engine,
				Call:         c.callID,
				Trial:        t,
				Trials:       c.cfg.Schedule.Trials,
				Epsilon:      c.cfg.Schedule.Epsilon,
				Log2Estimate: Log2(vals[i]),
				UnionSamples: effort[i].UnionSamples(),
				Elapsed:      time.Since(t0),
			})
		}
	})
	c.st.Accumulate(st)
	c.Trials = append(c.Trials, effort...)
	return vals, nil
}

// Close ends the call. It folds the engine-independent counters into
// the registry under the engine's prefix — calls, trials, scheduler
// effort, wall time and plan-cache outcome; the engine adds its own
// effort counters — and ends the span. A call driven by Run passes its
// Result, whose executed count goes on the span and whose saved trials
// go to the trials_saved and anytime_stops counters; a range call
// passes nil.
func (c *Call[S]) Close(planHit bool, res *Result) {
	if res != nil && c.Span != nil {
		c.Span.SetAttr("trials_executed", res.Executed)
	}
	if reg := c.Scope.Registry(); reg != nil {
		p := c.cfg.Engine + "_"
		wall := time.Since(c.start)
		st := c.st
		reg.Counter(p + "calls_total").Inc()
		reg.Counter(p + "trials_total").Add(int64(len(c.Trials)))
		reg.Counter(p + "worker_spawns_total").Add(st.Spawns)
		reg.Counter(p + "worker_busy_ns_total").Add(st.BusyNs)
		reg.Counter(p + "wall_ns_total").Add(wall.Nanoseconds())
		if planHit {
			reg.Counter(p + "plan_cache_hits_total").Inc()
		} else {
			reg.Counter(p + "plan_cache_misses_total").Inc()
		}
		reg.Counter(p + "sched_batches_total").Add(st.Batches)
		reg.Counter(p + "sched_chunks_total").Add(st.Chunks)
		reg.Counter(p + "sched_steals_total").Add(st.Steals)
		reg.Gauge(p + "sched_queue_depth").Set(float64(st.MaxQueue))
		reg.Histogram(p + "call_seconds").Observe(wall.Seconds())
		if res != nil {
			reg.Counter(p + "trials_saved_total").Add(int64(res.Saved))
			if res.Saved > 0 {
				reg.Counter(p + "anytime_stops_total").Inc()
			}
		}
	}
	c.Span.End()
}
