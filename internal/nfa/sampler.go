package nfa

import (
	"math/bits"

	"pqe/internal/prefix"
	"pqe/internal/splitmix"
)

// sampler is a sampling session over a frozen run: it draws words
// reading the memo tables and the plan's dense index but never writing
// them, so any number of samplers may run concurrently over one run.
// All scratch state (subset-simulation frontiers and masks, the overlap
// word batch, rejection counter) lives here; the scheduler binds one
// sampler per worker, rebinding it to the chunk's run at every chunk
// boundary (bind), so a sampler serves many trials within a call.
//
// The invariant the read-only lookups rely on: a sampler is only ever
// asked for (state, length) pairs whose estimates were computed — the
// estimation pass at a given length computes exactly the sub-estimates
// its sampling consults (all strictly smaller lengths), and the
// top-level APIs run topLevel before sampling.
type sampler struct {
	r   *wordRun
	rng splitmix.Stream
	// Subset-simulation scratch for acceptsSet: the current and next
	// state sets as lists, deduplicated by stamping mark[q] with the
	// step's generation gen. acceptsBatch reuses the lists.
	cur, next []int32
	mark      []uint32
	gen       uint32
	// Batch scratch for acceptsBatch: per-state word masks of the
	// current and next frontiers and per-symbol letter masks, all zero
	// between calls, and the batch's words, word-major.
	curMask, nextMask, symMask []uint64
	words                      []int
	rejections                 int
	// acceptChecks counts subset-simulation membership tests (one per
	// word tested), summed per call like rejections.
	acceptChecks int
}

func newSampler(pl *wordPlan) *sampler {
	n := pl.m.numStates
	return &sampler{
		mark:     make([]uint32, n),
		curMask:  make([]uint64, n),
		nextMask: make([]uint64, n),
		symMask:  make([]uint64, pl.ix.numSyms),
	}
}

// bind points the sampler at a run. Samplers are plan-scoped (mark and
// the masks are sized to the automaton), so binding only swaps the
// memo tables it reads.
func (s *sampler) bind(r *wordRun) { s.r = r }

// batchWords is the number of overlap samples acceptsBatch tests in one
// subset simulation: one bit of a machine word each.
const batchWords = 64

// retriesPerBranch bounds canonical-first rejection: a union draw over
// k targets gives up after retriesPerBranch·k rejected draws. It is a
// constant, not an option, so every process running a trial range
// draws exactly as the local run does.
const retriesPerBranch = 32

// countFresh draws the overlap samples lo ≤ i < hi for union branch j
// at length l and counts those landing outside all earlier branches.
// Each sample runs on its own PRNG derived from (trial seed, site, i),
// so the count is independent of how samples are partitioned across
// workers and chunks. Samples are drawn in groups of batchWords and each
// group's membership tests share one subset simulation; the grouping
// changes no word's answer.
func (s *sampler) countFresh(targets []int, j, l int, site uint64, lo, hi int) int {
	if cap(s.words) < batchWords*l {
		s.words = make([]int, batchWords*l)
	}
	fresh := 0
	for base := lo; base < hi; base += batchWords {
		k := min(batchWords, hi-base)
		words := s.words[:k*l]
		var valid uint64
		for b := 0; b < k; b++ {
			s.rng = splitmix.Derive(s.r.seed, site, base+b)
			if s.sampleFrom(targets[j], 0, words[b*l:(b+1)*l]) {
				valid |= 1 << b
			}
		}
		s.acceptChecks += bits.OnesCount64(valid)
		fresh += bits.OnesCount64(valid &^ s.acceptsBatch(targets[:j], words, l, valid))
	}
	return fresh
}

// sampleFrom fills out[pos:] with a near-uniform word from
// L(q, len(out)−pos), reporting false if the language is (estimated)
// empty. The word is built in place, one letter per step: the letter is
// drawn proportional to the per-symbol estimates (exactly correct, the
// per-symbol languages are disjoint), and a single-target step moves on
// to its target. Only a non-deterministic step recurses, drawing the
// rest of the word from the union of its targets' languages.
func (s *sampler) sampleFrom(q, pos int, out []int) bool {
	r := s.r
	for ; pos < len(out); pos++ {
		rem := len(out) - pos
		entries := r.pl.ix.states[q]
		i := 0
		if len(entries) == 1 {
			// The walk only enters cells whose estimate is nonzero, and a
			// one-entry state's estimate is its entry's weight, so
			// Row.Pick on this row would draw exactly one variate and
			// return 0: draw it and skip loading (or building) the row.
			s.rng.Uint64()
		} else if i = r.entryRow(q, rem).Pick(&s.rng); i < 0 {
			return false
		}
		en := &entries[i]
		out[pos] = en.sym
		if len(en.targets) > 1 {
			return s.sampleUnion(en.targets, r.targetRow(en.set, rem-1), retriesPerBranch*len(en.targets), pos+1, out)
		}
		q = en.targets[0]
	}
	return r.finals.Has(q)
}

// sampleUnion fills out[pos:] with a near-uniform word from the union
// of the targets' languages, trow being the targets' prefix row at that
// length, by canonical-first rejection: a draw from branch j is kept
// only if no earlier branch accepts it, which makes the draw uniform
// over the union. When maxRetry draws are all rejected it keeps the
// latest complete one (slightly biased towards multiply-covered words;
// the budget makes this path rare).
func (s *sampler) sampleUnion(targets []int, trow *prefix.Row, maxRetry, pos int, out []int) bool {
	have := false
	for retry := 0; retry < maxRetry; retry++ {
		j := trow.Pick(&s.rng)
		if j < 0 {
			break
		}
		if !s.sampleFrom(targets[j], pos, out) {
			continue
		}
		have = true
		if j == 0 || !s.acceptsSet(targets[:j], out[pos:]) {
			return true
		}
		s.rejections++
	}
	return have
}

// acceptsSet reports whether any state in the set accepts the word, by
// sparse subset simulation over the dense index: the current and next
// frontiers are state lists, a state joins the next frontier the first
// time a step reaches it (mark[q] == gen), and the run ends with one
// scan of the final frontier against the finals. A step costs the
// frontier's transitions, not the automaton's width.
func (s *sampler) acceptsSet(states []int, word []int) bool {
	s.acceptChecks++
	ix := s.r.pl.ix
	mark := s.mark
	gen := s.nextGen()
	cur := s.cur[:0]
	for _, q := range states {
		if mark[q] != gen {
			mark[q] = gen
			cur = append(cur, int32(q))
		}
	}
	next := s.next[:0]
	for _, a := range word {
		gen = s.nextGen()
		next = next[:0]
		for _, q := range cur {
			for _, t := range ix.targetsOf(int(q), a) {
				if mark[t] != gen {
					mark[t] = gen
					next = append(next, int32(t))
				}
			}
		}
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	s.cur, s.next = cur, next
	for _, q := range cur {
		if s.r.finals.Has(int(q)) {
			return true
		}
	}
	return false
}

// acceptsBatch returns the mask of the words, among those whose bit is
// set in valid, that some state in the set accepts. Word b is
// words[b·l:(b+1)·l]. One subset simulation runs all of them: a live
// state carries the mask of the words whose frontier holds it, a step
// ORs a state's mask, restricted to the words reading an entry's
// symbol, into each of the entry's targets, and the run ends when no
// state is live or the words are read. Each mask array entry is cleared
// as it is consumed, so both arrays are zero again on return.
func (s *sampler) acceptsBatch(states []int, words []int, l int, valid uint64) uint64 {
	if valid == 0 {
		return 0
	}
	ix := s.r.pl.ix
	cur, nxt, sym := s.curMask, s.nextMask, s.symMask
	live := s.cur[:0]
	for _, q := range states {
		if cur[q] == 0 {
			live = append(live, int32(q))
		}
		cur[q] |= valid
	}
	next := s.next[:0]
	alive := valid
	for p := 0; p < l && len(live) > 0; p++ {
		step := alive
		for m := step; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if a := words[b*l+p]; a < len(sym) {
				sym[a] |= 1 << b
			}
		}
		alive = 0
		next = next[:0]
		for _, q := range live {
			mq := cur[q]
			cur[q] = 0
			for i := range ix.states[q] {
				en := &ix.states[q][i]
				m := mq & sym[en.sym]
				if m == 0 {
					continue
				}
				alive |= m
				for _, t := range en.targets {
					if nxt[t] == 0 {
						next = append(next, int32(t))
					}
					nxt[t] |= m
				}
			}
		}
		for m := step; m != 0; m &= m - 1 {
			if a := words[bits.TrailingZeros64(m)*l+p]; a < len(sym) {
				sym[a] = 0
			}
		}
		cur, nxt = nxt, cur
		live, next = next, live
	}
	var accepted uint64
	for _, q := range live {
		if s.r.finals.Has(int(q)) {
			accepted |= cur[q]
		}
		cur[q] = 0
	}
	s.cur, s.next = live, next
	return accepted
}

// nextGen advances the frontier generation. On wrap-around every stamp
// is cleared, so no stale mark can equal a reissued generation.
func (s *sampler) nextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		clear(s.mark)
		s.gen = 1
	}
	return s.gen
}

// sampleTop draws a near-uniform word of length n from L_n(M) into a
// fresh slice, resolving the union over initial states by the same
// canonical-first rejection as branch sampling (the interned top set's
// prefix row, when |I| > 1). Returns nil if the language is (estimated)
// empty.
func (s *sampler) sampleTop(n int) []int {
	r := s.r
	targets := r.pl.m.initial
	if len(targets) == 0 {
		return nil
	}
	out := make([]int, n)
	if len(targets) == 1 {
		if !s.sampleFrom(targets[0], 0, out) {
			return nil
		}
		return out
	}
	if !s.sampleUnion(targets, r.targetRow(r.pl.ix.topSet, n), retriesPerBranch*(len(targets)+1), 0, out) {
		return nil
	}
	return out
}
