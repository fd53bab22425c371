package count

import (
	"fmt"
	"math"
	"time"

	"pqe/internal/efloat"
	"pqe/internal/nfta"
	"pqe/internal/obs"
	"pqe/internal/sched"
)

// ResolveSchedule reports the resolved trial schedule of a Trees call
// with these options: the defaulted (epsilon, trials, samples) triple.
// A shard coordinator ships the resolved values to its workers so every
// process runs the exact schedule the local call would, regardless of
// which side applied the defaults.
func (o Options) ResolveSchedule() (epsilon float64, trials, samples int) {
	d := o.withDefaults()
	return d.Epsilon, d.Trials, d.Samples
}

// TreesRange executes trials [lo, hi) of the fixed Trials schedule and
// returns their estimates in trial order. Trial t's seed is the t-th
// draw of the options' PRNG — exactly the seed Trees would hand the
// same trial — so the returned estimates are bit-identical to the
// corresponding slice of a local Trees call, no matter how the full
// range is partitioned across calls or processes. The caller (the
// shard coordinator, via internal/core) owns the median merge and the
// anytime batch boundaries.
func TreesRange(a *nfta.NFTA, n int, opts Options, lo, hi int) ([]efloat.E, error) {
	if a.HasLambda() {
		panic("count: automaton has λ-transitions; run EliminateLambda first")
	}
	opts = opts.withDefaults()
	if lo < 0 || hi < lo || hi > opts.Trials {
		return nil, fmt.Errorf("count: trial range [%d, %d) outside schedule [0, %d)", lo, hi, opts.Trials)
	}
	// Draw every trial seed so seeds[t] is a function of the schedule,
	// never of the requested range.
	seeds := make([]int64, opts.Trials)
	for t := range seeds {
		seeds[t] = opts.Rng.Int63()
	}
	if hi == lo {
		return nil, nil
	}
	pl, planHit := planFor(a)
	sc, span := opts.Obs.Span("count.trees_range")
	if span != nil {
		span.SetAttr("n", n)
		span.SetAttr("states", a.NumStates())
		span.SetAttr("trial_lo", lo)
		span.SetAttr("trial_hi", hi)
		span.SetAttr("trials", opts.Trials)
		span.SetAttr("epsilon", opts.Epsilon)
		span.SetAttr("workers", opts.procs)
	}
	conv := sc.Convergence()
	callID := conv.NextCall()
	timed := sc.Registry() != nil
	callStart := time.Time{}
	if conv != nil || span != nil || timed {
		callStart = time.Now()
	}
	results := make([]efloat.E, hi-lo)
	trials := make([]trialStats, hi-lo)
	call := newCallState(pl, opts.procs)
	st := sched.Run(sched.Config{
		Procs:  opts.procs,
		Trials: hi - lo,
		Timed:  timed,
		Labels: schedLabels,
	}, func(w *sched.Worker, i int) {
		if opts.cancelled() {
			return
		}
		t := lo + i
		tspan := span.Start("trial")
		var tt0 time.Time
		if conv != nil || tspan != nil {
			tt0 = time.Now()
		}
		r := pl.getRun(opts, seeds[t])
		r.w, r.call = w, call
		r.ensurePfx(n)
		results[i] = r.treeEst(a.Initial(), n)
		trials[i] = r.snapshot()
		pl.putRun(r)
		log2 := math.Inf(-1)
		if !results[i].IsZero() {
			log2 = results[i].Log2()
		}
		if tspan != nil {
			tspan.SetAttr("trial", t)
			tspan.SetAttr("union_samples", trials[i].unionSamples)
			tspan.End()
		}
		if conv != nil {
			conv.Record(obs.TrialRecord{
				Engine:       "countnfta",
				Call:         callID,
				Trial:        t,
				Trials:       opts.Trials,
				Epsilon:      opts.Epsilon,
				Log2Estimate: log2,
				UnionSamples: trials[i].unionSamples,
				Elapsed:      time.Since(tt0),
			})
		}
	})
	if reg := sc.Registry(); reg != nil {
		flushRegistry(reg, pl, trials, call, st, planHit, time.Since(callStart))
	}
	span.End()
	pl.releaseCall(call)
	if opts.cancelled() {
		return nil, opts.Ctx.Err()
	}
	return results, nil
}
