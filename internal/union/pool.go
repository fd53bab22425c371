package union

import (
	"context"
	"sync"

	"pqe/internal/efloat"
	"pqe/internal/sched"
	"pqe/internal/splitmix"
)

// Runner is an engine's per-trial run: the thin mutable half of a trial
// over the engine's plan geometry. Its type embeds Run, which holds the
// harness half.
type Runner[R any, S Sampler[R]] interface {
	base() *Run[R, S]
	// Reset clears the engine's memo tables, prefix grids and effort
	// state for the next trial, keeping every grown buffer.
	Reset()
	// Count sizes the prefix grids for sizes up to n and returns the
	// trial's estimate of the top-level language at n. It runs on the
	// trial's scheduler worker and fills the memo tables its samplers
	// read.
	Count(n int) efloat.E
	// Keys reports the trial's two memo key counts, in the order of the
	// engine Kind's key counter names.
	Keys() [2]int
}

// Sampler is an engine's sampling session: plan-scoped scratch that
// reads a run's memo tables but never writes them, so any number of
// samplers may run concurrently over one run. The harness binds one
// sampler per scheduler worker, rebinding it to the chunk's run at every
// chunk boundary, so a sampler serves many trials within a call. Its
// type embeds Effort.
//
// The invariant the read-only lookups rely on: a sampler is only ever
// asked for cells whose estimates were computed — Count at a given size
// computes exactly the sub-estimates its sampling consults (all at
// strictly smaller sizes), and Warm runs Count before any top-level
// draw.
type Sampler[R any] interface {
	comparable
	effort() *Effort
	// Bind points the sampler at a run (the zero R unbinds it).
	Bind(r R)
	// BindTop binds the sampler to r for top-level draws, which escape
	// to callers, on the stream rng.
	BindTop(r R, rng splitmix.Stream)
	// CountFresh draws the overlap samples lo ≤ i < hi of branch j of
	// branches at size n, each on the sub-stream derived from (the run's
	// seed, site, i), and counts those no earlier branch accepts.
	CountFresh(branches []int, j, n int, site uint64, lo, hi int) int
}

// RetriesPerBranch bounds canonical-first rejection in both engines: a
// union draw over k branches gives up after RetriesPerBranch·k rejected
// draws. It is a constant, not an option, so every process running a
// trial range draws exactly as the local run does.
const RetriesPerBranch = 32

// Effort is a sampler's effort counters, summed per call into the
// engine's rejections and accept-checks counters and zeroed when the
// sampler goes back to its pool.
type Effort struct {
	Rejections   int // canonical-first rejections
	AcceptChecks int // membership tests, one per tested object
}

func (e *Effort) effort() *Effort { return e }

// Run is the engine-independent half of a trial's run, embedded in the
// engine's run type: the trial's seed and sample count, the effort the
// estimation pass counts, and the worker, call and top-level sampler
// the run is bound to while its trial runs.
type Run[R any, S Sampler[R]] struct {
	Seed     int64
	MemoHits int // estimation-pass memo hits (its misses are the Keys)

	samples      int // overlap samples per union term
	unionSamples int // overlap samples drawn
	self         R
	// ctx cancels overlap-sampling dispatches mid-trial; the trial's
	// tables then hold garbage, which is fine because the whole call's
	// result is discarded by the caller (see Options.Ctx).
	ctx  context.Context
	w    *sched.Worker // scheduler worker driving this trial
	call *call[R, S]   // per-call shared worker samplers
	top  S             // lazily bound top-level sampling session
}

func (r *Run[R, S]) base() *Run[R, S] { return r }

// TopSampler returns the run's persistent top-level sampling session,
// creating it on first use (successive draws advance its stream).
func (r *Run[R, S]) TopSampler() S {
	var none S
	if r.top == none {
		r.top = r.call.pool.getSampler()
		r.top.BindTop(r.self, splitmix.New(uint64(r.Seed)^splitmix.TopSamplerSalt))
	}
	return r.top
}

// Union estimates the size of one union cell, A_0 ∪ … ∪ A_{k−1} over
// branches at size n, by the sequential difference decomposition
// |∪ A_j| = Σ_j |A_j|·Pr_{x∼A_j}[x ∉ A_0 ∪ … ∪ A_{j−1}]. size(b) is the
// estimate of branch b's language; the probability of each later
// nonempty branch is the fraction of its Samples draws that no earlier
// branch accepts, drawn on the sampling site site(j) names. Each engine
// has its own site rule; site is called exactly once per such branch,
// in branch order.
func (r *Run[R, S]) Union(branches []int, n int, size func(b int) efloat.E, site func(j int) uint64) efloat.E {
	total := efloat.Zero
	for j, b := range branches {
		cj := size(b)
		if cj.IsZero() {
			continue
		}
		if j == 0 {
			total = total.Add(cj)
			continue
		}
		fresh := r.countFresh(branches, j, n, site(j))
		total = total.Add(cj.MulFloat(float64(fresh) / float64(r.samples)))
	}
	return total
}

// countFresh runs the overlap-sampling loop of branch j: samples draws,
// counting those not covered by an earlier branch. The draws are
// independent given the (already computed) memo tables, so they fan out
// as chunks on the call's scheduler, executed by whichever workers are
// idle, each on that worker's sampler; per-sample sub-streams keyed by
// (seed, site, index) keep the count identical for every worker count
// and partition.
func (r *Run[R, S]) countFresh(branches []int, j, n int, site uint64) int {
	if r.ctx != nil && r.ctx.Err() != nil {
		return 0 // cancelled: skip the dispatch, the call is discarded
	}
	r.unionSamples += r.samples
	call, self := r.call, r.self
	return r.w.Sum(r.samples, func(w *sched.Worker, lo, hi int) int {
		s := call.sampler(w.ID())
		s.Bind(self)
		return s.CountFresh(branches, j, n, site, lo, hi)
	})
}

// Plan is the harness half of an engine's plan, embedded in it: what a
// call reports about the engine and the automaton, and the free lists
// of runs and samplers that let steady-state repeated estimation
// allocate near zero. Init it once when the engine builds its plan.
type Plan[R Runner[R, S], S Sampler[R]] struct {
	kind     *Kind
	states   int // automaton states, for the call span
	interned int // the Kind's gauge value
	newRun   func() R
	pool[R, S]
}

// Init describes the plan's automaton (its state count and the
// interned-structure count the Kind's gauge reports) and the engine's
// constructors of runs over the plan's geometry and of samplers.
func (p *Plan[R, S]) Init(kind *Kind, states, interned int, newRun func() R, newSampler func() S) {
	p.kind, p.states, p.interned = kind, states, interned
	p.newRun, p.newSampler = newRun, newSampler
}

// maxPooled caps each free list so a burst of concurrent sessions does
// not pin memory forever.
const maxPooled = 16

// pool holds a plan's free runs and samplers.
type pool[R any, S Sampler[R]] struct {
	mu         sync.Mutex
	runs       []R
	smps       []S
	newSampler func() S
}

// Pooled reports how many runs and samplers the plan's free lists hold.
func (p *pool[R, S]) Pooled() (runs, samplers int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.runs), len(p.smps)
}

// getRun hands out a pooled (or fresh) run configured for one trial on
// worker w of call c. Pooled runs are reset here, on reuse, not on
// release.
func (p *Plan[R, S]) getRun(opts Options, seed int64, w *sched.Worker, c *call[R, S]) R {
	p.mu.Lock()
	var r R
	pooled := false
	if k := len(p.runs); k > 0 {
		r, pooled = p.runs[k-1], true
		p.runs = p.runs[:k-1]
	}
	p.mu.Unlock()
	if pooled {
		r.Reset()
	} else {
		r = p.newRun()
	}
	*r.base() = Run[R, S]{Seed: seed, samples: opts.Samples, self: r, ctx: opts.Ctx, w: w, call: c}
	return r
}

// putRun returns one finished trial's run (with its top-level sampler)
// to the pool. Callers snapshot the run's counters first.
func (p *Plan[R, S]) putRun(r R) {
	b := r.base()
	var none S
	p.mu.Lock()
	if b.top != none {
		p.putSamplerLocked(b.top)
		b.top = none
	}
	b.w, b.call = nil, nil
	if len(p.runs) < maxPooled {
		p.runs = append(p.runs, r)
	}
	p.mu.Unlock()
}

// getSampler hands out a pooled (or fresh) sampler session. The caller
// binds it to a run.
func (p *pool[R, S]) getSampler() S {
	p.mu.Lock()
	if k := len(p.smps); k > 0 {
		s := p.smps[k-1]
		p.smps = p.smps[:k-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return p.newSampler()
}

func (p *pool[R, S]) putSamplerLocked(s S) {
	var none R
	s.Bind(none)
	*s.effort() = Effort{}
	if len(p.smps) < maxPooled {
		p.smps = append(p.smps, s)
	}
}

// call is the per-call shared context of one counting call: the
// worker-local samplers, indexed by dense scheduler worker ID. Each
// slot is only ever touched by the worker owning that ID (and read by
// the caller after the scheduler drains), so no synchronization is
// needed.
type call[R any, S Sampler[R]] struct {
	pool *pool[R, S]
	smps []S
}

func (p *pool[R, S]) newCall(procs int) *call[R, S] {
	return &call[R, S]{pool: p, smps: make([]S, procs)}
}

// releaseCall returns a call's worker samplers to the pool and reports
// their summed effort. Per-sample work is deterministic, so the sums
// match the sequential run regardless of which worker drew which
// sample.
func (p *pool[R, S]) releaseCall(c *call[R, S]) (rejections, acceptChecks int) {
	var none S
	p.mu.Lock()
	for _, s := range c.smps {
		if s != none {
			e := s.effort()
			rejections += e.Rejections
			acceptChecks += e.AcceptChecks
			p.putSamplerLocked(s)
		}
	}
	p.mu.Unlock()
	return rejections, acceptChecks
}

// sampler returns the calling worker's sampler, creating it on first
// use.
func (c *call[R, S]) sampler(id int) S {
	var none S
	if s := c.smps[id]; s != none {
		return s
	}
	s := c.pool.getSampler()
	c.smps[id] = s
	return s
}
