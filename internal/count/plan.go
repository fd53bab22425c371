package count

import (
	"encoding/binary"
	"sort"
	"sync"

	"pqe/internal/dense"
	"pqe/internal/nfta"
	"pqe/internal/splitmix"
)

// symTrans groups one state's outgoing transitions on one symbol: the
// interned children tuples in a fixed (canonical) order, plus the row
// of the unions memo table when there is more than one branch.
type symTrans struct {
	sym    int
	tuples []int
	slot   int // unions table row, -1 when len(tuples) == 1
}

// plan is the immutable, seed-independent half of a counting session:
// the interned transition structure (children tuples, their suffix
// chains, per-state symbol entries) and the dense-table geometry derived
// from it. It is built once per automaton and cached on the automaton
// itself (nfta.EnginePlan), so every trial, call and session over the
// same automaton shares one plan. The plan also pools the mutable
// per-trial runs and sampler sessions, so steady-state repeated
// estimation allocates near zero.
//
// Everything outside the pool free-lists is frozen after buildPlan and
// safe for unsynchronized concurrent reads.
type plan struct {
	a *nfta.NFTA

	// Per-state symbol entries (sorted by symbol), interned children
	// tuples, and each tuple's suffix tuple[1:] (interned eagerly so
	// sampling never mutates the interner).
	states [][]symTrans
	tuples [][]int
	restID []int
	slots  int // rows of the unions table (multi-branch entries)

	mu       sync.Mutex
	freeRuns []*run
	freeSmps []*sampler
}

// maxPooled caps each free list so a burst of concurrent sessions does
// not pin memory forever.
const maxPooled = 16

// planFor returns the automaton's cached plan, building and caching it
// on a miss. Concurrent builders may race; each result is equivalent
// and fully usable, and the last store wins.
func planFor(a *nfta.NFTA) (pl *plan, hit bool) {
	if v, ok := a.EnginePlan(); ok {
		if pl, ok := v.(*plan); ok {
			return pl, true
		}
	}
	pl = buildPlan(a)
	a.SetEnginePlan(pl)
	return pl, false
}

func buildPlan(a *nfta.NFTA) *plan {
	pl := &plan{a: a}
	tupleIDs := make(map[string]int)
	var keyBuf []byte
	var intern func(children []int) int
	intern = func(children []int) int {
		keyBuf = appendTupleKey(keyBuf[:0], children)
		k := string(keyBuf)
		if id, ok := tupleIDs[k]; ok {
			return id
		}
		id := len(pl.tuples)
		tupleIDs[k] = id
		pl.tuples = append(pl.tuples, append([]int(nil), children...))
		pl.restID = append(pl.restID, -1)
		if len(children) > 1 {
			rest := intern(children[1:])
			pl.restID[id] = rest
		}
		return id
	}
	pl.states = make([][]symTrans, a.NumStates())
	for q := 0; q < a.NumStates(); q++ {
		bySym := make(map[int]int) // symbol -> entry index
		var entries []symTrans
		for _, tr := range a.From(q) {
			id := intern(tr.Children)
			ei, ok := bySym[tr.Sym]
			if !ok {
				ei = len(entries)
				bySym[tr.Sym] = ei
				entries = append(entries, symTrans{sym: tr.Sym, slot: -1})
			}
			entries[ei].tuples = append(entries[ei].tuples, id)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].sym < entries[j].sym })
		for i := range entries {
			if len(entries[i].tuples) > 1 {
				entries[i].slot = pl.slots
				pl.slots++
			}
		}
		pl.states[q] = entries
	}
	return pl
}

// appendTupleKey appends a varint encoding of the children tuple — the
// interner's identity key. States are small non-negative integers, so
// most tuples encode to one byte per element with no formatting.
func appendTupleKey(dst []byte, children []int) []byte {
	for _, c := range children {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// getRun hands out a pooled (or fresh) run configured for one trial.
// Pooled runs are reset here, on reuse, not on release.
func (pl *plan) getRun(opts Options, seed int64) *run {
	pl.mu.Lock()
	var r *run
	if k := len(pl.freeRuns); k > 0 {
		r = pl.freeRuns[k-1]
		pl.freeRuns = pl.freeRuns[:k-1]
	}
	pl.mu.Unlock()
	if r == nil {
		r = &run{
			pl:      pl,
			trees:   dense.NewTable(len(pl.states)),
			unions:  dense.NewTable(pl.slots),
			forests: dense.NewTable(len(pl.tuples)),
		}
	} else {
		r.reset()
	}
	r.seed = seed
	r.samples = opts.Samples
	r.ctx = opts.Ctx
	return r
}

// getSampler hands out a pooled (or fresh) sampler session. The caller
// binds it to a run and, for escaping draws, clears its arena.
func (pl *plan) getSampler() *sampler {
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

func (pl *plan) putSamplerLocked(s *sampler) {
	s.r = nil
	s.rejections, s.acceptChecks = 0, 0
	if len(pl.freeSmps) < maxPooled {
		pl.freeSmps = append(pl.freeSmps, s)
	}
}

// putRun returns one finished trial's run (with its top-level sampler)
// to the pool. Callers snapshot the run's counters first.
func (pl *plan) putRun(r *run) {
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
func (pl *plan) releaseCall(call *callState) {
	pl.mu.Lock()
	for _, s := range call.smps {
		if s != nil {
			pl.putSamplerLocked(s)
		}
	}
	pl.mu.Unlock()
}

// callState is the per-call shared context of one Trees/Count call:
// the worker-local samplers, indexed by dense scheduler worker ID. Each
// slot is only ever touched by the worker owning that ID (and read by
// the caller after the scheduler drains), so no synchronization is
// needed.
type callState struct {
	pl   *plan
	smps []*sampler
}

func newCallState(pl *plan, procs int) *callState {
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
// session (successive draws advance its stream). Top-level draws escape
// to callers, so the sampler must not arena-allocate.
func (r *run) topSampler() *sampler {
	if r.top == nil {
		r.top = r.pl.getSampler()
		r.top.rng = splitmix.New(uint64(r.seed) ^ splitmix.TopSamplerSalt)
		r.top.arena = nil
		r.top.bind(r)
	}
	return r.top
}
