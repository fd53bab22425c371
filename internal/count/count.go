// Package count implements CountNFTA: a randomized approximation scheme
// for |L_n(T)|, the number of distinct labelled trees of size n accepted
// by a non-deterministic finite tree automaton. It follows the
// structure of the FPRAS of Arenas, Croquevielle, Jayaram and Riveros
// ("When is approximate counting for conjunctive queries tractable?",
// STOC 2021), the black box that Theorems 1 and 3 of the paper invoke:
//
//   - for every (state q, size n), the set T(q, n) of accepted trees
//     decomposes by root symbol (disjoint) and then into a union over
//     transitions, whose overlap is estimated by drawing near-uniform
//     samples and testing membership in earlier branches (tree
//     acceptance is polynomial-time);
//   - forests F((q₁,…,q_k), m) decompose as a *disjoint* union over the
//     size of the first tree of products T(q₁, j) × F((q₂,…,q_k), m−j),
//     so their cardinalities combine exactly with no extra sampling
//     error;
//   - samplers mirror the estimates: symbol and split choices are drawn
//     proportionally to estimated cardinalities, and transition overlap
//     is resolved by canonical-first rejection, which makes the draw
//     uniform over the union when the component samplers are uniform.
//
// Sample sizes default to a practical polynomial in 1/ε rather than the
// constants of the theoretical analysis (which the paper itself calls
// impractical, §6); accuracy is validated against exact counters in the
// test suite and experiment harness.
//
// The engine is built for throughput and splits into three layers:
//
//   - an immutable plan (plan.go) — the interned transition structure
//     and dense-table geometry — built once per automaton and cached on
//     it, shared by every trial and session;
//   - a per-trial run (this file) — seed, dense memo tables
//     (internal/dense), effort counters and prefix-sum weight rows
//     (prefix.go) — pooled on the plan so repeated estimation allocates
//     near zero in steady state;
//   - sampler sessions (sampler.go) with pooled bitsets and tree
//     arenas, bound to a run per chunk of sampling work.
//
// Trials and overlap-sample chunks share one work-stealing scheduler
// (internal/sched); every sample draws from its own sub-RNG derived
// from (trial seed, site, sample index) (internal/splitmix), so results
// are bit-identical for a fixed seed at every worker count. The
// string-side engine (internal/nfa) shares this architecture and these
// substrate packages.
package count

import (
	"context"
	"fmt"

	"pqe/internal/dense"
	"pqe/internal/efloat"
	"pqe/internal/nfta"
	"pqe/internal/obs"
	"pqe/internal/prefix"
	"pqe/internal/sched"
	"pqe/internal/trial"
)

// Options configures the estimator. The zero value gets sensible
// defaults.
type Options struct {
	// Epsilon is the target relative error of a single trial, in (0,1).
	// Default 0.1.
	Epsilon float64
	// Trials is the number of independent estimates whose median is
	// returned. Default 5.
	Trials int
	// Samples is the number of samples per overlap term; 0 derives
	// max(24, ⌈6/ε²⌉).
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
	// a count.trees span with per-trial child spans, countnfta_* registry
	// counters (memo hits/misses, interner sizes, acceptance checks,
	// plan-cache hits, scheduler steal/queue gauges), and per-trial
	// convergence records. A nil Scope disables all of it at the cost of
	// a pointer test.
	Obs *obs.Scope
	// Ctx, when non-nil, lets callers cancel a call mid-sampling:
	// cancellation is observed at every trial-batch boundary, before each
	// queued trial starts, and before each overlap-sampling dispatch, so
	// a cancelled call abandons its remaining work within one batch. The
	// value Trees returns after a cancellation is meaningless — callers
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

// ResolveSchedule reports the resolved trial schedule of a Trees call
// with these options: the defaulted (epsilon, trials, samples) triple.
// A shard coordinator ships the resolved values to its workers so every
// process runs the exact schedule the local call would, regardless of
// which side applied the defaults.
func (o Options) ResolveSchedule() (epsilon float64, trials, samples int) {
	s := o.schedule()
	return s.Epsilon, s.Trials, s.Samples
}

// schedLabels are the pprof labels applied to scheduler workers.
var schedLabels = []string{"pqe_engine", "countnfta", "pqe_stage", "trial"}

func checkLambda(a *nfta.NFTA) {
	if a.HasLambda() {
		panic("count: automaton has λ-transitions; run EliminateLambda first")
	}
}

// Trees approximates |L_n(T)| for a λ-free NFTA, within relative error ε
// with high probability (median of independent trials).
func Trees(a *nfta.NFTA, n int, opts Options) efloat.E {
	return Estimate(a, n, opts).Value
}

// Estimate is Trees with the trial driver's accounting: the median plus
// how many trials ran and how many the anytime certificate saved.
func Estimate(a *nfta.NFTA, n int, opts Options) trial.Result {
	opts = opts.withDefaults()
	c := begin(a, n, opts, "count.trees")
	// Exec never fails: a cancelled trial just leaves a zero estimate.
	res, _ := trial.Run(opts.Ctx, opts.schedule(), c.Exec)
	c.end(&res)
	return res
}

// TreesRange executes trials [lo, hi) of the fixed Trials schedule and
// returns their estimates in trial order. Trial t's seed is the trial
// driver's t-th seed — exactly the seed Trees would hand the same trial
// — so the returned estimates are bit-identical to the corresponding
// slice of a local Trees call, no matter how the full range is
// partitioned across calls or processes. The caller (the shard
// coordinator, via internal/core) owns the median merge and the anytime
// batch boundaries.
func TreesRange(a *nfta.NFTA, n int, opts Options, lo, hi int) ([]efloat.E, error) {
	opts = opts.withDefaults()
	if lo < 0 || hi < lo || hi > opts.Trials {
		return nil, fmt.Errorf("count: trial range [%d, %d) outside schedule [0, %d)", lo, hi, opts.Trials)
	}
	if hi == lo {
		return nil, nil
	}
	c := begin(a, n, opts, "count.trees_range")
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

// counting is one Trees or TreesRange call: the trial driver's harness
// plus the plan and worker samplers the call's trials share.
type counting struct {
	*trial.Call[trialStats]
	pl      *plan
	planHit bool
	call    *callState
}

// begin opens one counting call under span name. Each trial estimates
// on a pooled run and hands it back as soon as its effort is
// snapshotted.
func begin(a *nfta.NFTA, n int, opts Options, name string) *counting {
	checkLambda(a)
	pl, planHit := planFor(a)
	c := &counting{pl: pl, planHit: planHit, call: newCallState(pl, opts.MaxProcs)}
	c.Call = trial.Open(opts.Obs, trial.CallConfig{
		Engine: "countnfta", Span: name, Schedule: opts.schedule(),
		Procs: opts.MaxProcs, Labels: schedLabels, Ctx: opts.Ctx, N: n, States: a.NumStates(),
	}, func(w *sched.Worker, seed int64) (efloat.E, trialStats) {
		r := pl.getRun(opts, seed)
		r.w, r.call = w, c.call
		r.ensurePfx(n)
		v := r.treeEst(a.Initial(), n)
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
		var treeKeys, forestKeys, memoHits, unionSamples int
		rejections, acceptChecks := c.call.totals()
		for _, ts := range c.Trials {
			treeKeys += ts.treeKeys
			forestKeys += ts.forestKeys
			memoHits += ts.memoHits
			unionSamples += ts.unionSamples
			acceptChecks += ts.acceptChecks
		}
		reg.Counter("countnfta_tree_keys_total").Add(int64(treeKeys))
		reg.Counter("countnfta_forest_keys_total").Add(int64(forestKeys))
		reg.Counter("countnfta_memo_hits_total").Add(int64(memoHits))
		reg.Counter("countnfta_memo_misses_total").Add(int64(treeKeys + forestKeys))
		reg.Counter("countnfta_union_samples_total").Add(int64(unionSamples))
		reg.Counter("countnfta_rejections_total").Add(int64(rejections))
		reg.Counter("countnfta_accept_checks_total").Add(int64(acceptChecks))
		reg.Gauge("countnfta_interned_tuples").Set(float64(len(c.pl.tuples)))
	}
	c.Close(c.planHit, res)
	c.pl.releaseCall(c.call)
}

// trialStats is one trial's effort counters, snapshotted when the trial
// ends so its run can go straight back to the plan's pool: a call holds
// at most one run per scheduler worker, not one per trial. A trial that
// never ran (cancelled) keeps the zero value.
type trialStats struct {
	treeKeys, forestKeys, memoHits, unionSamples, acceptChecks int
}

// UnionSamples implements trial.Effort.
func (ts trialStats) UnionSamples() int { return ts.unionSamples }

func (r *run) snapshot() trialStats {
	ts := trialStats{
		treeKeys:     r.trees.Keys(),
		forestKeys:   r.forests.Keys(),
		memoHits:     r.memoHits,
		unionSamples: r.unionSamples,
	}
	if r.top != nil {
		ts.acceptChecks = r.top.acceptChecks
	}
	return ts
}

// SampleTree draws one near-uniform tree from L_n(T), or nil if the
// language is (estimated) empty. It draws from the first trial of the
// options' schedule.
func SampleTree(a *nfta.NFTA, n int, opts Options) *nfta.Tree {
	checkLambda(a)
	opts = opts.withDefaults()
	pl, _ := planFor(a)
	call := newCallState(pl, opts.MaxProcs)
	seed := trial.Schedule{Trials: 1, Seed: opts.Seed}.Seeds()[0]
	var r *run
	var tree *nfta.Tree
	sched.Run(sched.Config{Procs: opts.MaxProcs, Trials: 1, Labels: schedLabels}, func(w *sched.Worker, _ int) {
		r = pl.getRun(opts, seed)
		r.w, r.call = w, call
		r.ensurePfx(n)
		if r.treeEst(a.Initial(), n).IsZero() {
			return
		}
		tree = r.topSampler().sampleTree(a.Initial(), n)
	})
	if r != nil {
		pl.putRun(r)
	}
	pl.releaseCall(call)
	return tree
}

// run is the thin mutable half of a trial: the seed, the dense memo
// tables and prefix rows keyed to the plan's geometry, and the effort
// counters. Estimation (treeEst / symbolUnion / forestEst) runs
// sequentially on the trial's scheduler worker and writes the tables;
// sampling runs on sampler sessions that only read them (see
// sampler.go). Runs are pooled on the plan, returned the moment their
// trial ends, and reset on reuse.
type run struct {
	pl      *plan
	seed    int64
	samples int

	trees   dense.Table // rows: states
	unions  dense.Table // rows: multi-branch (state, symbol) slots
	forests dense.Table // rows: tuple IDs

	// Prefix-sum weight rows (prefix.go), indexed (row, size).
	entryPfx  prefix.Grid
	branchPfx prefix.Grid
	splitPfx  prefix.Grid
	pfx       prefix.Builder

	unionSamples int
	memoHits     int    // estimation-path memo-table hits (misses = keys)
	siteSeq      uint64 // sampling-site counter for sub-RNG derivation

	// ctx cancels overlap-sampling dispatches mid-trial; the trial's
	// tables then hold garbage, which is fine because the whole call's
	// result is discarded by the caller (see Options.Ctx).
	ctx context.Context

	w    *sched.Worker // scheduler worker driving this trial
	call *callState    // per-call shared worker samplers

	top *sampler // lazily created top-level sampling session
}

// reset prepares a pooled run for a new trial, keeping every grown
// buffer (memo rows, prefix arrays, arena chunks) at capacity.
func (r *run) reset() {
	r.trees.Reset()
	r.unions.Reset()
	r.forests.Reset()
	r.entryPfx.Clear()
	r.branchPfx.Clear()
	r.splitPfx.Clear()
	r.pfx.Reset()
	r.unionSamples, r.memoHits, r.siteSeq = 0, 0, 0
	r.ctx = nil
	r.w, r.call, r.top = nil, nil, nil
}

// treeEst returns the (memoized) estimate of |T(q, n)|.
func (r *run) treeEst(q, n int) efloat.E {
	if n <= 0 {
		return efloat.Zero
	}
	if v, ok := r.trees.Get(q, n); ok {
		r.memoHits++
		return v
	}
	// Guard against reentrancy: with n ≥ 1 the recursion strictly
	// decreases sizes (forests of n−1 < n), so plain memoization
	// suffices; pre-store zero to be safe against pathological input.
	r.trees.Put(q, n, efloat.Zero)
	total := efloat.Zero
	for i := range r.pl.states[q] {
		total = total.Add(r.symbolUnion(q, i, n))
	}
	r.trees.Put(q, n, total)
	return total
}

// treeLookup is the read-only view of treeEst for samplers.
func (r *run) treeLookup(q, n int) efloat.E {
	if n <= 0 {
		return efloat.Zero
	}
	v, _ := r.trees.Get(q, n)
	return v
}

// symbolUnion estimates (and memoizes) the number of trees of size n,
// root label states[q][ei].sym, accepted from q: the union over the
// entry's transitions of the sym-rooted trees with child forest in
// F(c, n−1). Memoization matters: the samplers consult these estimates
// at every recursion level, and re-estimating a union re-runs its
// sampling loop.
func (r *run) symbolUnion(q, ei, n int) efloat.E {
	en := &r.pl.states[q][ei]
	tuples := en.tuples
	if len(tuples) == 1 {
		return r.forestEst(tuples[0], n-1)
	}
	if v, ok := r.unions.Get(en.slot, n); ok {
		r.memoHits++
		return v
	}
	r.unions.Put(en.slot, n, efloat.Zero)
	total := efloat.Zero
	for j, tid := range tuples {
		cj := r.forestEst(tid, n-1)
		if cj.IsZero() {
			continue
		}
		if j == 0 {
			total = total.Add(cj)
			continue
		}
		fresh := r.countFresh(tuples, j, n)
		total = total.Add(cj.MulFloat(float64(fresh) / float64(r.samples)))
	}
	r.unions.Put(en.slot, n, total)
	return total
}

// unionLookup is the read-only view of symbolUnion for samplers.
func (r *run) unionLookup(en *symTrans, n int) efloat.E {
	if len(en.tuples) == 1 {
		return r.forestLookup(en.tuples[0], n-1)
	}
	v, _ := r.unions.Get(en.slot, n)
	return v
}

// countFresh runs the overlap-sampling loop for union branch j at size
// n: r.samples forest draws, counting those not covered by an earlier
// branch. The draws are independent given the (already computed) memo
// tables, so they fan out as chunks on the call's scheduler, executed
// by whichever workers are idle; per-sample sub-RNGs keep the count
// identical for every worker count and partition.
func (r *run) countFresh(tuples []int, j, n int) int {
	site := r.siteSeq
	r.siteSeq++
	if r.ctx != nil && r.ctx.Err() != nil {
		return 0 // cancelled: skip the dispatch, the call is discarded
	}
	r.unionSamples += r.samples
	call := r.call
	return r.w.Sum(r.samples, func(w *sched.Worker, lo, hi int) int {
		s := call.sampler(w.ID())
		s.bind(r)
		return s.countFresh(tuples, j, n, site, lo, hi)
	})
}

// forestEst returns the (memoized) estimate of |F(tuple, m)|, combining
// first-tree-size splits exactly (disjoint union of products).
func (r *run) forestEst(tid, m int) efloat.E {
	tuple := r.pl.tuples[tid]
	switch len(tuple) {
	case 0:
		if m == 0 {
			return efloat.One
		}
		return efloat.Zero
	case 1:
		return r.treeEst(tuple[0], m)
	}
	if v, ok := r.forests.Get(tid, m); ok {
		r.memoHits++
		return v
	}
	rest := r.pl.restID[tid]
	total := efloat.Zero
	for j := 1; j <= m-(len(tuple)-1); j++ {
		head := r.treeEst(tuple[0], j)
		if head.IsZero() {
			continue
		}
		total = total.Add(head.Mul(r.forestEst(rest, m-j)))
	}
	r.forests.Put(tid, m, total)
	return total
}

// forestLookup is the read-only view of forestEst for samplers.
func (r *run) forestLookup(tid, m int) efloat.E {
	tuple := r.pl.tuples[tid]
	switch len(tuple) {
	case 0:
		if m == 0 {
			return efloat.One
		}
		return efloat.Zero
	case 1:
		return r.treeLookup(tuple[0], m)
	}
	v, _ := r.forests.Get(tid, m)
	return v
}
