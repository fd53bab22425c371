package nfa

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pqe/internal/bitset"
	"pqe/internal/dense"
	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/sched"
	"pqe/internal/seqstop"
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
	// MaxRetry bounds rejection-sampling retries per draw. 0 derives
	// a default proportional to the branch fan-out.
	MaxRetry int
	// Seed seeds the deterministic PRNG. Ignored if Rng is set.
	Seed int64
	// Rng, when non-nil, supplies randomness.
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
	// flow into Obs's registry under countnfa_* names; new call sites
	// should read those.
	Stats *Stats
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

	// procs is the resolved scheduler width, filled by withDefaults.
	procs int
}

// cancelled reports whether the call's context has been cancelled.
func (o CountOptions) cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// Stats reports how much work the estimator did.
type Stats struct {
	// WordKeys and UnionKeys are memo-table sizes: distinct
	// (state, length) and (target set, length) cells computed.
	WordKeys, UnionKeys int
	// UnionSamples is the number of words drawn for overlap estimation.
	UnionSamples int
	// Rejections counts canonical-rejection retries during sampling.
	Rejections int
	// WallTime is the elapsed time of the Count calls that recorded into
	// this Stats.
	WallTime time.Duration
	// Mallocs and AllocBytes are heap-allocation deltas over those
	// calls, read from runtime.MemStats. They are process-global, so
	// concurrent unrelated work inflates them; within the benchmark
	// harness they attribute cleanly.
	Mallocs    uint64
	AllocBytes uint64
}

func (o CountOptions) withDefaults() CountOptions {
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
var schedLabels = []string{"pqe_engine", "countnfa", "pqe_stage", "trial"}

// Count approximates |L_n(M)|, the number of distinct words of length n
// accepted by M, within relative error ε with high probability. It
// realizes the paper's CountNFA black box [5].
func Count(m *NFA, n int, opts CountOptions) efloat.E {
	opts = opts.withDefaults()
	var t0 time.Time
	var m0 runtime.MemStats
	if opts.Stats != nil {
		t0 = time.Now()
		runtime.ReadMemStats(&m0)
	}
	pl, planHit := planFor(m)
	sc, span := opts.Obs.Span("count.nfa")
	if span != nil {
		span.SetAttr("n", n)
		span.SetAttr("states", m.numStates)
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
		results[t] = r.topLevel(n)
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
				Engine:       "countnfa",
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
			opts.Stats.record(ts)
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
		reg.Counter("countnfa_trials_saved_total").Add(int64(saved))
		if saved > 0 {
			reg.Counter("countnfa_anytime_stops_total").Inc()
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
	wordKeys, unionKeys, memoHits, unionSamples, acceptChecks int
}

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

// flushRegistry folds the per-call effort counters into the unified
// metrics registry, once per Count call — never inside the sampling
// loops, which only bump plain per-run and per-sampler integers.
func flushRegistry(reg *obs.Registry, pl *wordPlan, trials []trialStats, call *callState, st sched.Stats, planHit bool, wall time.Duration) {
	var wordKeys, unionKeys, memoHits, unionSamples int
	rejections, acceptChecks := call.totals()
	for _, ts := range trials {
		wordKeys += ts.wordKeys
		unionKeys += ts.unionKeys
		memoHits += ts.memoHits
		unionSamples += ts.unionSamples
		acceptChecks += ts.acceptChecks
	}
	reg.Counter("countnfa_calls_total").Inc()
	reg.Counter("countnfa_trials_total").Add(int64(len(trials)))
	reg.Counter("countnfa_word_keys_total").Add(int64(wordKeys))
	reg.Counter("countnfa_union_keys_total").Add(int64(unionKeys))
	reg.Counter("countnfa_memo_hits_total").Add(int64(memoHits))
	reg.Counter("countnfa_memo_misses_total").Add(int64(wordKeys + unionKeys))
	reg.Counter("countnfa_union_samples_total").Add(int64(unionSamples))
	reg.Counter("countnfa_rejections_total").Add(int64(rejections))
	reg.Counter("countnfa_accept_checks_total").Add(int64(acceptChecks))
	reg.Counter("countnfa_worker_spawns_total").Add(st.Spawns)
	reg.Counter("countnfa_worker_busy_ns_total").Add(st.BusyNs)
	reg.Counter("countnfa_wall_ns_total").Add(wall.Nanoseconds())
	if planHit {
		reg.Counter("countnfa_plan_cache_hits_total").Inc()
	} else {
		reg.Counter("countnfa_plan_cache_misses_total").Inc()
	}
	reg.Counter("countnfa_sched_batches_total").Add(st.Batches)
	reg.Counter("countnfa_sched_chunks_total").Add(st.Chunks)
	reg.Counter("countnfa_sched_steals_total").Add(st.Steals)
	reg.Gauge("countnfa_sched_queue_depth").Set(float64(st.MaxQueue))
	reg.Gauge("countnfa_interned_sets").Set(float64(len(pl.ix.sets)))
	reg.Histogram("countnfa_call_seconds").Observe(wall.Seconds())
}

func (s *Stats) record(ts trialStats) {
	s.WordKeys += ts.wordKeys
	s.UnionKeys += ts.unionKeys
	s.UnionSamples += ts.unionSamples
}

// wordRun is the thin mutable half of a trial: the seed, the dense memo
// tables over the plan's frozen index, the prefix-sum weight rows
// (prefix.go) and the effort counters. Estimation (estimate / unionEst)
// runs sequentially on the trial's scheduler worker and writes the
// tables; sampling runs on sampler sessions that only read them (see
// sampler.go). Runs are pooled on the plan, returned the moment their
// trial ends, and reset on reuse.
type wordRun struct {
	pl       *wordPlan
	finals   bitset.Set
	seed     int64
	samples  int
	maxRetry int

	words  dense.Table // rows: states; |L(q, l)| estimates
	unions dense.Table // rows: interned target sets; |∪ L(q', l)|

	// Prefix-sum weight rows, flat arrays indexed row·(maxN+1)+length.
	maxN      int
	entryPfx  []atomic.Pointer[prefixRow]
	targetPfx []atomic.Pointer[prefixRow]
	pfxMu     sync.Mutex
	pfx       pfxArena

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
	clear(r.entryPfx)
	clear(r.targetPfx)
	r.pfx.reset()
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
		return s.countFresh(targets, j, l, site, lo, hi)
	})
}

// SampleWord draws one near-uniform word of length n from L_n(M), or
// nil if the language is empty. This mirrors the uniform-generation
// facet of [5].
func SampleWord(m *NFA, n int, opts CountOptions) []int {
	opts = opts.withDefaults()
	pl, _ := planFor(m)
	call := newCallState(pl, opts.procs)
	var r *wordRun
	var word []int
	sched.Run(sched.Config{Procs: opts.procs, Trials: 1, Labels: schedLabels}, func(w *sched.Worker, _ int) {
		r = pl.getRun(opts, opts.Rng.Int63())
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
