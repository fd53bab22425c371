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
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pqe/internal/dense"
	"pqe/internal/efloat"
	"pqe/internal/nfta"
	"pqe/internal/obs"
	"pqe/internal/sched"
	"pqe/internal/seqstop"
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
	// MaxRetry bounds canonical-rejection retries; 0 derives a default.
	MaxRetry int
	// Seed seeds the deterministic PRNG (ignored when Rng is set).
	Seed int64
	// Rng supplies randomness when non-nil.
	Rng *rand.Rand
	// Anytime enables sequential stopping: trials run in deterministic
	// batches (a pure function of (Epsilon, Delta, Trials), never of
	// wall-clock time or MaxProcs) and the call stops at the earliest
	// batch whose per-trial log₂ estimates all agree within the ε-band,
	// provided a conservative δ-derived floor of trials has run. Trials
	// is the hard cap — an anytime call never runs more trials than the
	// fixed schedule would, and when the certificate never fires it runs
	// exactly the fixed schedule. See internal/seqstop for the
	// statistics.
	Anytime bool
	// Delta is the anytime certificate's failure-probability target in
	// (0,1); ≤ 0 uses seqstop.DefaultDelta. Ignored unless Anytime.
	Delta float64
	// MinTrials overrides the δ-derived trial floor (clamped to
	// [1, Trials]). Ignored unless Anytime.
	MinTrials int
	// MaxProcs bounds the workers of the call's unified scheduler, which
	// dispatches whole trials and, within them, chunks of the
	// overlap-sampling loops (work-stealing, so a straggler trial never
	// leaves workers idle). 0 derives the count from the deprecated
	// Parallel/Workers pair; every setting returns bit-identical results
	// for a fixed seed.
	MaxProcs int
	// Parallel requests trial-level parallelism.
	//
	// Deprecated: set MaxProcs. Parallel maps to MaxProcs = Trials.
	Parallel bool
	// Workers requests intra-trial sampling parallelism.
	//
	// Deprecated: set MaxProcs. Workers > 1 maps to MaxProcs = Workers.
	Workers int
	// Stats, when non-nil, accumulates estimator effort counters across
	// all trials. Deprecated thin accessor: the same counters (and more)
	// flow into Obs's registry under countnfta_* names; new call sites
	// should read those.
	Stats *Stats
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

	// procs is the resolved scheduler width, filled by withDefaults.
	procs int
}

// cancelled reports whether the call's context has been cancelled.
func (o Options) cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// Stats reports how much work the estimator did.
type Stats struct {
	// TreeKeys and ForestKeys are memo-table sizes: distinct (state,
	// size) and (tuple, size) cells computed.
	TreeKeys, ForestKeys int
	// UnionSamples is the number of forests drawn for overlap
	// estimation.
	UnionSamples int
	// Rejections counts canonical-rejection retries during sampling.
	Rejections int
	// WallTime is the elapsed time of the Trees calls that recorded
	// into this Stats.
	WallTime time.Duration
	// Mallocs and AllocBytes are heap-allocation deltas over those
	// calls, read from runtime.MemStats. They are process-global, so
	// concurrent unrelated work inflates them; within the benchmark
	// harness they attribute cleanly.
	Mallocs    uint64
	AllocBytes uint64
}

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		o.Epsilon = 0.1
	}
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.Samples <= 0 {
		o.Samples = int(math.Max(24, math.Ceil(6/(o.Epsilon*o.Epsilon))))
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	o.procs = sched.Resolve(o.MaxProcs, o.Workers, o.Parallel, o.Trials)
	if o.Rng == nil {
		seed := o.Seed
		if seed == 0 {
			seed = 1
		}
		o.Rng = rand.New(rand.NewSource(seed))
	}
	return o
}

// schedLabels are the pprof labels applied to scheduler workers.
var schedLabels = []string{"pqe_engine", "countnfta", "pqe_stage", "trial"}

// Trees approximates |L_n(T)| for a λ-free NFTA, within relative error ε
// with high probability (median of independent trials).
func Trees(a *nfta.NFTA, n int, opts Options) efloat.E {
	if a.HasLambda() {
		panic("count: automaton has λ-transitions; run EliminateLambda first")
	}
	opts = opts.withDefaults()
	var t0 time.Time
	var m0 runtime.MemStats
	if opts.Stats != nil {
		t0 = time.Now()
		runtime.ReadMemStats(&m0)
	}
	pl, planHit := planFor(a)
	sc, span := opts.Obs.Span("count.trees")
	if span != nil {
		span.SetAttr("n", n)
		span.SetAttr("states", a.NumStates())
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
	results := make([]efloat.E, opts.Trials)
	log2s := make([]float64, opts.Trials)
	seeds := make([]int64, opts.Trials)
	for t := range seeds {
		seeds[t] = opts.Rng.Int63()
	}
	trials := make([]trialStats, opts.Trials)
	call := newCallState(pl, opts.procs)
	trial := func(w *sched.Worker, t int) {
		if opts.cancelled() {
			return // queued after cancellation; the caller discards the call
		}
		tspan := span.Start("trial")
		var tt0 time.Time
		if conv != nil || tspan != nil {
			tt0 = time.Now()
		}
		r := pl.getRun(opts, seeds[t])
		r.w, r.call = w, call
		r.ensurePfx(n)
		results[t] = r.treeEst(a.Initial(), n)
		trials[t] = r.snapshot()
		pl.putRun(r)
		log2 := math.Inf(-1)
		if !results[t].IsZero() {
			log2 = results[t].Log2()
		}
		log2s[t] = log2
		if tspan != nil {
			tspan.SetAttr("trial", t)
			tspan.SetAttr("union_samples", trials[t].unionSamples)
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
				UnionSamples: trials[t].unionSamples,
				Elapsed:      time.Since(tt0),
			})
		}
	}
	// The anytime path runs the same trials (same per-trial seeds, so
	// every executed trial is bit-identical to the fixed schedule's) in
	// deterministic batches, stopping at the earliest batch whose
	// spread certificate meets (ε, δ); the fixed path is one batch of
	// all Trials. Batch boundaries and the stop decision depend only on
	// (ε, δ, Trials) and the per-trial estimates — never on MaxProcs or
	// wall-clock time — so both paths are deterministic at every worker
	// count.
	var st sched.Stats
	executed := opts.Trials
	if opts.Anytime {
		sp := seqstop.New(opts.Epsilon, opts.Delta, opts.Trials, opts.MinTrials)
		executed = 0
		for executed < opts.Trials {
			if opts.cancelled() {
				break // per-batch deadline check; result is discarded
			}
			base := executed
			next := sp.NextBatch(base)
			bst := sched.Run(sched.Config{
				Procs:  opts.procs,
				Trials: next - base,
				Timed:  timed,
				Labels: schedLabels,
			}, func(w *sched.Worker, t int) { trial(w, base+t) })
			st.Accumulate(bst)
			executed = next
			if sp.Stop(log2s[:executed]) {
				break
			}
		}
	} else {
		st = sched.Run(sched.Config{
			Procs:  opts.procs,
			Trials: opts.Trials,
			Timed:  timed,
			Labels: schedLabels,
		}, trial)
	}
	saved := opts.Trials - executed
	results = results[:executed]
	if span != nil {
		span.SetAttr("trials_executed", executed)
	}
	if opts.Stats != nil {
		for _, ts := range trials {
			opts.Stats.TreeKeys += ts.treeKeys
			opts.Stats.ForestKeys += ts.forestKeys
			opts.Stats.UnionSamples += ts.unionSamples
		}
		rej, _ := call.totals()
		opts.Stats.Rejections += rej
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		opts.Stats.WallTime += time.Since(t0)
		opts.Stats.Mallocs += m1.Mallocs - m0.Mallocs
		opts.Stats.AllocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	if reg := sc.Registry(); reg != nil {
		flushRegistry(reg, pl, trials[:executed], call, st, planHit, time.Since(callStart))
		reg.Counter("countnfta_trials_saved_total").Add(int64(saved))
		if saved > 0 {
			reg.Counter("countnfta_anytime_stops_total").Inc()
		}
	}
	span.End()
	pl.releaseCall(call)
	if len(results) == 0 {
		return efloat.Zero // cancelled before any batch ran; caller discards
	}
	return efloat.UpperMedian(results)
}

// trialStats is one trial's effort counters, snapshotted when the trial
// ends so its run can go straight back to the plan's pool: a call holds
// at most one run per scheduler worker, not one per trial. A trial that
// never ran (cancelled) keeps the zero value.
type trialStats struct {
	treeKeys, forestKeys, memoHits, unionSamples, acceptChecks int
}

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

// flushRegistry folds the per-call effort counters into the unified
// metrics registry, once per Trees call — never inside the sampling
// loops, which only bump plain per-run and per-sampler integers.
func flushRegistry(reg *obs.Registry, pl *plan, trials []trialStats, call *callState, st sched.Stats, planHit bool, wall time.Duration) {
	var treeKeys, forestKeys, memoHits, unionSamples int
	rejections, acceptChecks := call.totals()
	for _, ts := range trials {
		treeKeys += ts.treeKeys
		forestKeys += ts.forestKeys
		memoHits += ts.memoHits
		unionSamples += ts.unionSamples
		acceptChecks += ts.acceptChecks
	}
	reg.Counter("countnfta_calls_total").Inc()
	reg.Counter("countnfta_trials_total").Add(int64(len(trials)))
	reg.Counter("countnfta_tree_keys_total").Add(int64(treeKeys))
	reg.Counter("countnfta_forest_keys_total").Add(int64(forestKeys))
	reg.Counter("countnfta_memo_hits_total").Add(int64(memoHits))
	reg.Counter("countnfta_memo_misses_total").Add(int64(treeKeys + forestKeys))
	reg.Counter("countnfta_union_samples_total").Add(int64(unionSamples))
	reg.Counter("countnfta_rejections_total").Add(int64(rejections))
	reg.Counter("countnfta_accept_checks_total").Add(int64(acceptChecks))
	reg.Counter("countnfta_worker_spawns_total").Add(st.Spawns)
	reg.Counter("countnfta_worker_busy_ns_total").Add(st.BusyNs)
	reg.Counter("countnfta_wall_ns_total").Add(wall.Nanoseconds())
	if planHit {
		reg.Counter("countnfta_plan_cache_hits_total").Inc()
	} else {
		reg.Counter("countnfta_plan_cache_misses_total").Inc()
	}
	reg.Counter("countnfta_sched_batches_total").Add(st.Batches)
	reg.Counter("countnfta_sched_chunks_total").Add(st.Chunks)
	reg.Counter("countnfta_sched_steals_total").Add(st.Steals)
	reg.Gauge("countnfta_sched_queue_depth").Set(float64(st.MaxQueue))
	reg.Gauge("countnfta_interned_tuples").Set(float64(len(pl.tuples)))
	reg.Histogram("countnfta_call_seconds").Observe(wall.Seconds())
}

// SampleTree draws one near-uniform tree from L_n(T), or nil if the
// language is (estimated) empty.
func SampleTree(a *nfta.NFTA, n int, opts Options) *nfta.Tree {
	if a.HasLambda() {
		panic("count: automaton has λ-transitions; run EliminateLambda first")
	}
	opts = opts.withDefaults()
	pl, _ := planFor(a)
	call := newCallState(pl, opts.procs)
	var r *run
	var tree *nfta.Tree
	sched.Run(sched.Config{Procs: opts.procs, Trials: 1, Labels: schedLabels}, func(w *sched.Worker, _ int) {
		r = pl.getRun(opts, opts.Rng.Int63())
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
	pl       *plan
	seed     int64
	samples  int
	maxRetry int

	trees   dense.Table // rows: states
	unions  dense.Table // rows: multi-branch (state, symbol) slots
	forests dense.Table // rows: tuple IDs

	// Prefix-sum weight rows (prefix.go), flat arrays indexed
	// row·(maxN+1)+size.
	maxN      int
	entryPfx  []atomic.Pointer[prefixRow]
	branchPfx []atomic.Pointer[prefixRow]
	splitPfx  []atomic.Pointer[prefixRow]
	pfxMu     sync.Mutex
	pfx       pfxArena

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
	clear(r.entryPfx)
	clear(r.branchPfx)
	clear(r.splitPfx)
	r.pfx.reset()
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
