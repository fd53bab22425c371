package nfa

import (
	"sync"

	"pqe/internal/dense"
	"pqe/internal/splitmix"
)

// wordPlan is the immutable, seed-independent half of a counting
// session over one NFA: the frozen dense index (transition structure,
// interned target sets) plus the dense-table geometry derived from it.
// It is built once per automaton version and cached on the automaton,
// so every trial, call and session shares one plan; it also pools the
// mutable per-trial runs and sampler sessions, so steady-state repeated
// estimation allocates near zero. The tree-side engine (internal/count)
// mirrors this structure.
type wordPlan struct {
	m     *NFA
	ix    *denseIndex
	built uint64

	mu       sync.Mutex
	freeRuns []*wordRun
	freeSmps []*sampler
}

// maxPooled caps each free list so a burst of concurrent sessions does
// not pin memory forever.
const maxPooled = 16

// planFor returns the automaton's cached plan, building and caching it
// on a miss (or after a structural mutation). Concurrent builders may
// race; each result is equivalent and fully usable, and the last store
// wins.
func planFor(m *NFA) (pl *wordPlan, hit bool) {
	if pl := m.cplan.Load(); pl != nil && pl.built == m.version {
		return pl, true
	}
	pl = &wordPlan{m: m, ix: m.index(), built: m.version}
	m.cplan.Store(pl)
	return pl, false
}

// getRun hands out a pooled (or fresh) run configured for one trial.
// Pooled runs are reset here, on reuse, not on release.
func (pl *wordPlan) getRun(opts CountOptions, seed int64) *wordRun {
	pl.mu.Lock()
	var r *wordRun
	if k := len(pl.freeRuns); k > 0 {
		r = pl.freeRuns[k-1]
		pl.freeRuns = pl.freeRuns[:k-1]
	}
	pl.mu.Unlock()
	if r == nil {
		r = &wordRun{
			pl:     pl,
			finals: pl.m.final,
			words:  dense.NewTable(pl.m.numStates),
			unions: dense.NewTable(len(pl.ix.sets)),
			maxN:   -1,
		}
	} else {
		r.reset()
	}
	r.seed = seed
	r.samples = opts.Samples
	r.maxRetry = opts.MaxRetry
	r.ctx = opts.Ctx
	return r
}

// getSampler hands out a pooled (or fresh) sampler session. The caller
// binds it to a run.
func (pl *wordPlan) getSampler() *sampler {
	pl.mu.Lock()
	if k := len(pl.freeSmps); k > 0 {
		s := pl.freeSmps[k-1]
		pl.freeSmps = pl.freeSmps[:k-1]
		pl.mu.Unlock()
		return s
	}
	pl.mu.Unlock()
	return newSampler(pl)
}

func (pl *wordPlan) putSamplerLocked(s *sampler) {
	s.r = nil
	s.rejections, s.acceptChecks = 0, 0
	if len(pl.freeSmps) < maxPooled {
		pl.freeSmps = append(pl.freeSmps, s)
	}
}

// putRun returns one finished trial's run (with its top-level sampler)
// to the pool. Callers snapshot the run's counters first.
func (pl *wordPlan) putRun(r *wordRun) {
	pl.mu.Lock()
	if r.top != nil {
		pl.putSamplerLocked(r.top)
		r.top = nil
	}
	r.w, r.call = nil, nil
	if len(pl.freeRuns) < maxPooled {
		pl.freeRuns = append(pl.freeRuns, r)
	}
	pl.mu.Unlock()
}

// releaseCall returns a call's worker samplers to the pool. Callers
// must be done reading their counters.
func (pl *wordPlan) releaseCall(call *callState) {
	pl.mu.Lock()
	for _, s := range call.smps {
		if s != nil {
			pl.putSamplerLocked(s)
		}
	}
	pl.mu.Unlock()
}

// callState is the per-call shared context of one Count call: the
// worker-local samplers, indexed by dense scheduler worker ID. Each
// slot is only ever touched by the worker owning that ID (and read by
// the caller after the scheduler drains), so no synchronization is
// needed.
type callState struct {
	pl   *wordPlan
	smps []*sampler
}

func newCallState(pl *wordPlan, procs int) *callState {
	return &callState{pl: pl, smps: make([]*sampler, procs)}
}

// sampler returns the calling worker's sampler, creating it on first
// use.
func (c *callState) sampler(id int) *sampler {
	if s := c.smps[id]; s != nil {
		return s
	}
	s := c.pl.getSampler()
	c.smps[id] = s
	return s
}

// totals sums the sampling effort counters across the call's worker
// samplers. Per-sample work is deterministic, so the totals match the
// sequential run regardless of which worker drew which sample.
func (c *callState) totals() (rejections, acceptChecks int) {
	for _, s := range c.smps {
		if s != nil {
			rejections += s.rejections
			acceptChecks += s.acceptChecks
		}
	}
	return rejections, acceptChecks
}

// topSampler lazily creates the run's persistent top-level sampling
// session (successive draws advance its stream).
func (r *wordRun) topSampler() *sampler {
	if r.top == nil {
		r.top = r.pl.getSampler()
		r.top.rng = splitmix.New(uint64(r.seed) ^ splitmix.TopSamplerSalt)
		r.top.bind(r)
	}
	return r.top
}
