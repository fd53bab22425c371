package count

import (
	"pqe/internal/bitset"
	"pqe/internal/nfta"
	"pqe/internal/splitmix"
)

// sampler is a sampling session over a frozen run: it draws trees and
// forests reading the memo tables and the plan's transition structure
// but never writing them, so any number of samplers may run
// concurrently over one run. All scratch state (bitset pool, forest
// buffer, rejection counter) lives here; the scheduler binds one
// sampler per worker, rebinding it to the chunk's run at every chunk
// boundary (bind), so a sampler serves many trials within a call.
//
// The invariant the read-only lookups rely on: a sampler is only ever
// asked for (state, size) pairs whose estimates were computed — the
// estimation pass at a given size computes exactly the sub-estimates
// its sampling consults (all strictly smaller sizes), and the
// top-level APIs run treeEst before sampling.
type sampler struct {
	r          *run
	rng        splitmix.Stream
	pool       *bitset.Pool
	sets       []bitset.Set // scratch for firstAccepting
	forestBuf  []*nfta.Tree // transient forest for overlap testing
	arena      *treeArena   // nil when sampled trees escape to callers
	rejections int
	// acceptChecks counts acceptance-bitset computations (one per forest
	// tree membership-tested), summed per call like rejections.
	acceptChecks int
}

func newSampler(pl *plan) *sampler {
	return &sampler{
		pool: bitset.NewPool(pl.a.NumStates()),
	}
}

// bind points the sampler at a run. Samplers are plan-scoped (the
// bitset pool is sized to the automaton), so binding only swaps the
// memo tables it reads.
func (s *sampler) bind(r *run) { s.r = r }

// treeArena bump-allocates tree nodes and children slices in reusable
// chunks. Overlap sampling builds a forest only to membership-test and
// discard it; with the arena reset between samples, the steady-state
// loop performs no heap allocation for trees at all.
type treeArena struct {
	nodes []nfta.Tree
	nused int
	refs  []*nfta.Tree
	rused int
}

const arenaChunk = 512

// retriesPerBranch bounds canonical-first rejection: a union draw over
// k branches gives up after retriesPerBranch·k rejected draws. It is a
// constant, not an option, so every process running a trial range
// draws exactly as the local run does.
const retriesPerBranch = 32

func (ar *treeArena) reset() { ar.nused, ar.rused = 0, 0 }

func (ar *treeArena) node(sym int, children []*nfta.Tree) *nfta.Tree {
	if ar.nused == len(ar.nodes) {
		// A fresh, larger chunk; nodes of the current sample in the old
		// chunk stay reachable through their parents.
		ar.nodes = make([]nfta.Tree, max(arenaChunk, 2*len(ar.nodes)))
		ar.nused = 0
	}
	t := &ar.nodes[ar.nused]
	ar.nused++
	t.Sym, t.Children = sym, children
	return t
}

func (ar *treeArena) slice(n int) []*nfta.Tree {
	if n == 0 {
		return nil
	}
	if ar.rused+n > len(ar.refs) {
		ar.refs = make([]*nfta.Tree, max(arenaChunk, 2*len(ar.refs)+n))
		ar.rused = 0
	}
	s := ar.refs[ar.rused : ar.rused+n : ar.rused+n]
	ar.rused += n
	return s
}

// newTree and newForest allocate through the arena when the sampler has
// one (transient draws), or on the heap (escaping draws).
func (s *sampler) newTree(sym int, children []*nfta.Tree) *nfta.Tree {
	if s.arena != nil {
		return s.arena.node(sym, children)
	}
	return &nfta.Tree{Sym: sym, Children: children}
}

func (s *sampler) newForest(n int) []*nfta.Tree {
	if s.arena != nil {
		return s.arena.slice(n)
	}
	return make([]*nfta.Tree, n)
}

// countFresh draws the overlap samples lo ≤ i < hi for union branch j
// at size n and counts those landing outside all earlier branches. Each
// sample runs on its own PRNG derived from (trial seed, site, i), so
// the count is independent of how samples are partitioned across
// workers and chunks.
func (s *sampler) countFresh(tuples []int, j, n int, site uint64, lo, hi int) int {
	if s.arena == nil {
		s.arena = &treeArena{}
	}
	fresh := 0
	for i := lo; i < hi; i++ {
		s.rng = splitmix.Derive(s.r.seed, site, i)
		s.arena.reset()
		f, ok := s.sampleForestScratch(tuples[j], n-1)
		if !ok {
			continue
		}
		if s.firstAccepting(tuples[:j], f) < 0 {
			fresh++
		}
	}
	return fresh
}

// sampleTree draws a near-uniform tree from T(q, n), or nil if empty.
func (s *sampler) sampleTree(q, n int) *nfta.Tree {
	r := s.r
	if r.treeLookup(q, n).IsZero() {
		return nil
	}
	entries := r.pl.states[q]
	i := r.entryRow(q, n).Pick(&s.rng)
	if i < 0 {
		return nil
	}
	en := &entries[i]
	if len(en.tuples) == 1 {
		f, ok := s.sampleForestAlloc(en.tuples[0], n-1)
		if !ok {
			return nil
		}
		return s.newTree(en.sym, f)
	}
	brow := r.branchRow(en, n)
	// Canonical-first rejection: a draw from branch j is kept only if no
	// earlier branch accepts it, which makes the draw uniform over the
	// union.
	var last *nfta.Tree
	for retry := 0; retry < retriesPerBranch*len(en.tuples); retry++ {
		j := brow.Pick(&s.rng)
		if j < 0 {
			break
		}
		f, ok := s.sampleForestAlloc(en.tuples[j], n-1)
		if !ok {
			continue
		}
		last = s.newTree(en.sym, f)
		if j == 0 || s.firstAccepting(en.tuples[:j], f) < 0 {
			return last
		}
		s.rejections++
	}
	// Retry budget exhausted: return the latest draw (slightly biased
	// towards multiply-covered trees; the budget makes this path rare).
	return last
}

// sampleForestAlloc draws a near-uniform forest from F(tuple, m) into a
// fresh slice (retained as tree children).
func (s *sampler) sampleForestAlloc(tid, m int) ([]*nfta.Tree, bool) {
	out := s.newForest(len(s.r.pl.tuples[tid]))
	if !s.sampleForestInto(tid, m, out) {
		return nil, false
	}
	return out, true
}

// sampleForestScratch is sampleForestAlloc into a reused buffer, for
// forests that are only membership-tested and then discarded.
func (s *sampler) sampleForestScratch(tid, m int) ([]*nfta.Tree, bool) {
	k := len(s.r.pl.tuples[tid])
	if cap(s.forestBuf) < k {
		s.forestBuf = make([]*nfta.Tree, k)
	}
	buf := s.forestBuf[:k]
	if !s.sampleForestInto(tid, m, buf) {
		return nil, false
	}
	return buf, true
}

// sampleForestInto fills out (of length len(tuple)) with a near-uniform
// forest from F(tuple, m), reporting false if empty. Splits are
// disjoint, so no rejection is needed. The suffix chain is walked
// iteratively using the precomputed rest-tuple IDs — no per-level slice
// copying.
func (s *sampler) sampleForestInto(tid, m int, out []*nfta.Tree) bool {
	r := s.r
	for i := 0; ; i++ {
		tuple := r.pl.tuples[tid]
		switch len(tuple) {
		case 0:
			return m == 0
		case 1:
			t := s.sampleTree(tuple[0], m)
			if t == nil {
				return false
			}
			out[i] = t
			return true
		}
		maxHead := m - (len(tuple) - 1)
		if maxHead < 1 {
			return false
		}
		k := r.splitRow(tid, m, maxHead).Pick(&s.rng)
		if k < 0 {
			return false
		}
		j := k + 1
		head := s.sampleTree(tuple[0], j)
		if head == nil {
			return false
		}
		out[i] = head
		tid, m = r.pl.restID[tid], m-j
	}
}

// firstAccepting returns the index of the first tuple accepting the
// forest, or -1. Acceptance bitsets per forest tree are computed once
// into pooled scratch; the membership test per tuple is then a few
// word probes.
func (s *sampler) firstAccepting(tuples []int, forest []*nfta.Tree) int {
	r := s.r
	sets := s.sets[:0]
	s.acceptChecks += len(forest)
	for _, t := range forest {
		b := s.pool.Get()
		r.pl.a.AcceptingStatesInto(t, b, s.pool)
		sets = append(sets, b)
	}
	res := -1
	for j, tid := range tuples {
		tuple := r.pl.tuples[tid]
		if len(tuple) != len(forest) {
			continue
		}
		ok := true
		for i, q := range tuple {
			if !sets[i].Has(q) {
				ok = false
				break
			}
		}
		if ok {
			res = j
			break
		}
	}
	for _, b := range sets {
		s.pool.Put(b)
	}
	s.sets = sets[:0]
	return res
}
