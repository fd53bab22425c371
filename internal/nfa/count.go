package nfa

import (
	"context"
	"fmt"

	"pqe/internal/bitset"
	"pqe/internal/dense"
	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/prefix"
	"pqe/internal/sched"
	"pqe/internal/trial"
)

// CountOptions configures the CountNFA approximation scheme.
type CountOptions struct {
	// Epsilon is the target relative error of a single trial. Must be in
	// (0, 1). Default 0.1.
	Epsilon float64
	// Trials is the number of independent estimates whose median is
	// returned (the standard confidence-boosting step of an FPRAS).
	// Default 5.
	Trials int
	// Samples is the number of samples drawn per overlap term when
	// estimating the size of a union of non-deterministic branches.
	// 0 derives a default of max(24, ⌈6/ε²⌉).
	//
	// The rigorous bound of Arenas et al. is polynomial but with large
	// constants the paper itself deems impractical (§6); this knob is
	// the practical stand-in, validated against exact counts in the
	// test suite.
	Samples int
	// Seed seeds the per-trial seed sequence (internal/trial). Default 1.
	Seed int64
	// Anytime enables sequential stopping: trials run in deterministic
	// batches (a pure function of (Epsilon, Delta, Trials), never of
	// wall-clock time or MaxProcs) and the call stops at the earliest
	// batch whose per-trial log₂ estimates all agree within the ε-band,
	// provided a conservative δ-derived floor of trials has run. Trials
	// is the hard cap — an anytime call never runs more trials than the
	// fixed schedule would, and when the certificate never fires it runs
	// exactly the fixed schedule. See internal/trial for the statistics.
	Anytime bool
	// Delta is the anytime certificate's failure-probability target in
	// (0,1); ≤ 0 uses trial.DefaultDelta. Ignored unless Anytime.
	Delta float64
	// MaxProcs bounds the workers of the call's unified scheduler, which
	// dispatches whole trials and, within them, chunks of the
	// overlap-sampling loops (work-stealing, so a straggler trial never
	// leaves workers idle). 0 means 1; every setting returns
	// bit-identical results for a fixed seed.
	MaxProcs int
	// Obs, when non-nil, receives the unified telemetry of every call:
	// a count.nfa span with per-trial child spans, countnfa_* registry
	// counters (memo hits/misses, interner sizes, acceptance checks,
	// plan-cache hits, scheduler steal/queue gauges), and per-trial
	// convergence records. A nil Scope disables all of it at the cost of
	// a pointer test.
	Obs *obs.Scope
	// Ctx, when non-nil, lets callers cancel a call mid-sampling:
	// cancellation is observed at every trial-batch boundary, before each
	// queued trial starts, and before each overlap-sampling dispatch, so
	// a cancelled call abandons its remaining work within one batch. The
	// value Count returns after a cancellation is meaningless — callers
	// must check Ctx.Err() and discard it (internal/core does). A nil Ctx
	// (the default) never cancels and adds no per-sample cost.
	Ctx context.Context
}

// schedule is the call's trial schedule, defaulted.
func (o CountOptions) schedule() trial.Schedule {
	return trial.Schedule{
		Epsilon: o.Epsilon,
		Trials:  o.Trials,
		Samples: o.Samples,
		Seed:    o.Seed,
		Anytime: o.Anytime,
		Delta:   o.Delta,
	}.Resolve()
}

func (o CountOptions) withDefaults() CountOptions {
	s := o.schedule()
	o.Epsilon, o.Trials, o.Samples, o.Seed = s.Epsilon, s.Trials, s.Samples, s.Seed
	o.MaxProcs = max(o.MaxProcs, 1)
	return o
}

// ResolveSchedule reports the resolved trial schedule of a Count call
// with these options: the defaulted (epsilon, trials, samples) triple.
// A shard coordinator ships the resolved values to its workers so every
// process runs the exact schedule the local call would, regardless of
// which side applied the defaults.
func (o CountOptions) ResolveSchedule() (epsilon float64, trials, samples int) {
	s := o.schedule()
	return s.Epsilon, s.Trials, s.Samples
}

// schedLabels are the pprof labels applied to scheduler workers.
var schedLabels = []string{"pqe_engine", "countnfa", "pqe_stage", "trial"}

// Count approximates |L_n(M)|, the number of distinct words of length n
// accepted by M, within relative error ε with high probability. It
// realizes the paper's CountNFA black box [5].
func Count(m *NFA, n int, opts CountOptions) efloat.E {
	return Estimate(m, n, opts).Value
}

// Estimate is Count with the trial driver's accounting: the median plus
// how many trials ran and how many the anytime certificate saved.
func Estimate(m *NFA, n int, opts CountOptions) trial.Result {
	opts = opts.withDefaults()
	c := begin(m, n, opts, "count.nfa")
	// Exec never fails: a cancelled trial just leaves a zero estimate.
	res, _ := trial.Run(opts.Ctx, opts.schedule(), c.Exec)
	c.end(&res)
	return res
}

// CountRange executes trials [lo, hi) of the fixed Trials schedule and
// returns their estimates in trial order. Trial t's seed is the trial
// driver's t-th seed — exactly the seed Count would hand the same trial
// — so the returned estimates are bit-identical to the corresponding
// slice of a local Count call, no matter how the full range is
// partitioned across calls or processes. The caller (the shard
// coordinator, via internal/core) owns the median merge and the anytime
// batch boundaries.
func CountRange(m *NFA, n int, opts CountOptions, lo, hi int) ([]efloat.E, error) {
	opts = opts.withDefaults()
	if lo < 0 || hi < lo || hi > opts.Trials {
		return nil, fmt.Errorf("nfa: trial range [%d, %d) outside schedule [0, %d)", lo, hi, opts.Trials)
	}
	if hi == lo {
		return nil, nil
	}
	c := begin(m, n, opts, "count.nfa_range")
	if c.Span != nil {
		c.Span.SetAttr("trial_lo", lo)
		c.Span.SetAttr("trial_hi", hi)
	}
	vals, _ := c.Exec(lo, hi)
	c.end(nil)
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, opts.Ctx.Err()
	}
	return vals, nil
}

// counting is one Count or CountRange call: the trial driver's harness
// plus the plan and worker samplers the call's trials share.
type counting struct {
	*trial.Call[trialStats]
	pl      *wordPlan
	planHit bool
	call    *callState
}

// begin opens one counting call under span name. Each trial estimates
// on a pooled run and hands it back as soon as its effort is
// snapshotted.
func begin(m *NFA, n int, opts CountOptions, name string) *counting {
	pl, planHit := planFor(m)
	c := &counting{pl: pl, planHit: planHit, call: newCallState(pl, opts.MaxProcs)}
	c.Call = trial.Open(opts.Obs, trial.CallConfig{
		Engine: "countnfa", Span: name, Schedule: opts.schedule(),
		Procs: opts.MaxProcs, Labels: schedLabels, Ctx: opts.Ctx, N: n, States: m.numStates,
	}, func(w *sched.Worker, seed int64) (efloat.E, trialStats) {
		r := pl.getRun(opts, seed)
		r.w, r.call = w, c.call
		r.ensurePfx(n)
		v := r.topLevel(n)
		ts := r.snapshot()
		pl.putRun(r)
		return v, ts
	})
	return c
}

// end flushes the call's effort counters into the unified metrics
// registry — once per call, never inside the sampling loops, which only
// bump plain per-run and per-sampler integers — closes the call (res is
// the driven call's Result, nil for a range) and returns the samplers
// to the plan.
func (c *counting) end(res *trial.Result) {
	if reg := c.Scope.Registry(); reg != nil {
		var wordKeys, unionKeys, memoHits, unionSamples int
		rejections, acceptChecks := c.call.totals()
		for _, ts := range c.Trials {
			wordKeys += ts.wordKeys
			unionKeys += ts.unionKeys
			memoHits += ts.memoHits
			unionSamples += ts.unionSamples
			acceptChecks += ts.acceptChecks
		}
		reg.Counter("countnfa_word_keys_total").Add(int64(wordKeys))
		reg.Counter("countnfa_union_keys_total").Add(int64(unionKeys))
		reg.Counter("countnfa_memo_hits_total").Add(int64(memoHits))
		reg.Counter("countnfa_memo_misses_total").Add(int64(wordKeys + unionKeys))
		reg.Counter("countnfa_union_samples_total").Add(int64(unionSamples))
		reg.Counter("countnfa_rejections_total").Add(int64(rejections))
		reg.Counter("countnfa_accept_checks_total").Add(int64(acceptChecks))
		reg.Gauge("countnfa_interned_sets").Set(float64(len(c.pl.ix.sets)))
	}
	c.Close(c.planHit, res)
	c.pl.releaseCall(c.call)
}

// trialStats is one trial's effort counters, snapshotted when the trial
// ends so its run can go straight back to the plan's pool: a call holds
// at most one run per scheduler worker, not one per trial. A trial that
// never ran (cancelled) keeps the zero value.
type trialStats struct {
	wordKeys, unionKeys, memoHits, unionSamples, acceptChecks int
}

// UnionSamples implements trial.Effort.
func (ts trialStats) UnionSamples() int { return ts.unionSamples }

func (r *wordRun) snapshot() trialStats {
	ts := trialStats{
		wordKeys:     r.words.Keys(),
		unionKeys:    r.unions.Keys(),
		memoHits:     r.memoHits,
		unionSamples: r.unionSamples,
	}
	if r.top != nil {
		ts.acceptChecks = r.top.acceptChecks
	}
	return ts
}

// wordRun is the thin mutable half of a trial: the seed, the dense memo
// tables over the plan's frozen index, the prefix-sum weight rows
// (prefix.go) and the effort counters. Estimation (estimate / unionEst)
// runs sequentially on the trial's scheduler worker and writes the
// tables; sampling runs on sampler sessions that only read them (see
// sampler.go). Runs are pooled on the plan, returned the moment their
// trial ends, and reset on reuse.
type wordRun struct {
	pl      *wordPlan
	finals  bitset.Set
	seed    int64
	samples int

	words  dense.Table // rows: states; |L(q, l)| estimates
	unions dense.Table // rows: interned target sets; |∪ L(q', l)|

	// Prefix-sum weight rows (prefix.go), indexed (row, length).
	entryPfx  prefix.Grid
	targetPfx prefix.Grid
	pfx       prefix.Builder

	unionSamples int
	memoHits     int // estimation-path memo-table hits (misses = keys)

	// ctx cancels overlap-sampling dispatches mid-trial; the trial's
	// tables then hold garbage, which is fine because the whole call's
	// result is discarded by the caller (see CountOptions.Ctx).
	ctx context.Context

	w    *sched.Worker // scheduler worker driving this trial
	call *callState    // per-call shared worker samplers

	top *sampler // lazily created top-level sampling session
}

// reset prepares a pooled run for a new trial, keeping every grown
// buffer (memo rows, prefix arrays, arena chunks) at capacity.
func (r *wordRun) reset() {
	r.words.Reset()
	r.unions.Reset()
	r.entryPfx.Clear()
	r.targetPfx.Clear()
	r.pfx.Reset()
	r.unionSamples, r.memoHits = 0, 0
	r.ctx = nil
	r.w, r.call, r.top = nil, nil, nil
}

// topLevel estimates |∪_{q∈I} L(q, n)|.
func (r *wordRun) topLevel(n int) efloat.E {
	if r.pl.ix.topSet >= 0 {
		return r.unionEst(r.pl.ix.topSet, n)
	}
	if len(r.pl.m.initial) == 1 {
		return r.estimate(r.pl.m.initial[0], n)
	}
	return efloat.Zero
}

// estimate returns the (memoized) estimate of |L(q, l)|.
func (r *wordRun) estimate(q, l int) efloat.E {
	if l == 0 {
		if r.finals.Has(q) {
			return efloat.One
		}
		return efloat.Zero
	}
	if v, ok := r.words.Get(q, l); ok {
		r.memoHits++
		return v
	}
	// Words starting with different symbols are distinct, so the
	// per-symbol unions combine by exact summation.
	r.words.Put(q, l, efloat.Zero)
	total := efloat.Zero
	for i := range r.pl.ix.states[q] {
		en := &r.pl.ix.states[q][i]
		if en.set < 0 {
			total = total.Add(r.estimate(en.targets[0], l-1))
		} else {
			total = total.Add(r.unionEst(en.set, l-1))
		}
	}
	r.words.Put(q, l, total)
	return total
}

// wordLookup is the read-only view of estimate for samplers.
func (r *wordRun) wordLookup(q, l int) efloat.E {
	if l == 0 {
		if r.finals.Has(q) {
			return efloat.One
		}
		return efloat.Zero
	}
	v, _ := r.words.Get(q, l)
	return v
}

// unionEst estimates (and memoizes) |∪_{q'∈set} L(q', l)| via the
// sequential difference decomposition
// |∪ A_j| = Σ_j |A_j|·Pr_{x∼A_j}[x ∉ A_1 ∪ … ∪ A_{j−1}], with each
// probability estimated by sampling from A_j and testing membership in
// the earlier branches (NFA acceptance is polynomial). Interning means
// every (state, symbol) pair with the same target set shares this cell.
func (r *wordRun) unionEst(set, l int) efloat.E {
	if v, ok := r.unions.Get(set, l); ok {
		r.memoHits++
		return v
	}
	r.unions.Put(set, l, efloat.Zero)
	targets := r.pl.ix.sets[set]
	total := efloat.Zero
	for j, t := range targets {
		cj := r.estimate(t, l)
		if cj.IsZero() {
			continue
		}
		if j == 0 {
			total = total.Add(cj)
			continue
		}
		fresh := r.countFresh(targets, j, l, cellSite(set, l, j))
		total = total.Add(cj.MulFloat(float64(fresh) / float64(r.samples)))
	}
	r.unions.Put(set, l, total)
	return total
}

// cellSite names the sampling site of union branch j at cell (set, l)
// for sub-RNG derivation. Unlike a per-call sequence counter, the site
// depends only on the cell identity, so the estimate of every memo cell
// is a pure function of (seed, automaton): Counter sweeps, one-shot
// calls, and any evaluation order produce byte-identical tables.
func cellSite(set, l, j int) uint64 {
	return uint64(set)*0x9e3779b97f4a7c15 + uint64(l)*0xbf58476d1ce4e5b9 + uint64(j)
}

// unionLookup is the read-only view of an index entry's union estimate
// for samplers.
func (r *wordRun) unionLookup(en *ixEntry, l int) efloat.E {
	if en.set < 0 {
		return r.wordLookup(en.targets[0], l)
	}
	v, _ := r.unions.Get(en.set, l)
	return v
}

// countFresh runs the overlap-sampling loop for union branch j at
// length l: r.samples word draws, counting those not covered by an
// earlier branch. The draws are independent given the (already
// computed) memo tables, so they fan out as chunks on the call's
// scheduler, executed by whichever workers are idle; per-sample
// sub-RNGs keep the count identical for every worker count and
// partition.
func (r *wordRun) countFresh(targets []int, j, l int, site uint64) int {
	if r.ctx != nil && r.ctx.Err() != nil {
		return 0 // cancelled: skip the dispatch, the call is discarded
	}
	r.unionSamples += r.samples
	call := r.call
	return r.w.Sum(r.samples, func(w *sched.Worker, lo, hi int) int {
		s := call.sampler(w.ID())
		s.bind(r)
		return freshKernel(s, targets, j, l, site, lo, hi)
	})
}

// freshKernel is the per-chunk overlap-sampling kernel countFresh runs.
// It is a variable only so the kernel tests can run Count on a
// per-sample reference loop and compare the bits.
var freshKernel = (*sampler).countFresh

// SampleWord draws one near-uniform word of length n from L_n(M), or
// nil if the language is empty, from the first trial of the options'
// schedule. This mirrors the uniform-generation facet of [5].
func SampleWord(m *NFA, n int, opts CountOptions) []int {
	opts = opts.withDefaults()
	pl, _ := planFor(m)
	call := newCallState(pl, opts.MaxProcs)
	seed := trial.Schedule{Trials: 1, Seed: opts.Seed}.Seeds()[0]
	var r *wordRun
	var word []int
	sched.Run(sched.Config{Procs: opts.MaxProcs, Trials: 1, Labels: schedLabels}, func(w *sched.Worker, _ int) {
		r = pl.getRun(opts, seed)
		r.w, r.call = w, call
		r.ensurePfx(n)
		if r.topLevel(n).IsZero() {
			return
		}
		word = r.topSampler().sampleTop(n)
	})
	if r != nil {
		pl.putRun(r)
	}
	pl.releaseCall(call)
	return word
}
