package nfa

import (
	"pqe/internal/bitset"
	"pqe/internal/dense"
	"pqe/internal/efloat"
	"pqe/internal/prefix"
	"pqe/internal/trial"
	"pqe/internal/union"
)

// CountOptions is the harness's union.Options under its old name; it
// exists only because perfbench/ compiles against it.
type CountOptions = union.Options

// Count approximates |L_n(M)|, the number of distinct words of length n
// accepted by M, within relative error ε with high probability. It
// realizes the paper's CountNFA black box [5].
func Count(m *NFA, n int, opts union.Options) efloat.E {
	return Estimate(m, n, opts).Value
}

// Estimate is Count with the trial driver's accounting: the median plus
// how many trials ran and how many the anytime certificate saved.
func Estimate(m *NFA, n int, opts union.Options) trial.Result {
	pl, hit := planFor(m)
	return pl.Estimate(hit, n, opts)
}

// CountRange executes trials [lo, hi) of the fixed Trials schedule and
// returns their estimates in trial order, bit-identical to the same
// slice of a local Count call (see union.Plan.Range).
func CountRange(m *NFA, n int, opts union.Options, lo, hi int) ([]efloat.E, error) {
	pl, hit := planFor(m)
	return pl.Range(hit, n, opts, lo, hi)
}

// SampleWord draws one near-uniform word of length n from L_n(M), or
// nil if the language is empty, from the first trial of the options'
// schedule. This mirrors the uniform-generation facet of [5].
func SampleWord(m *NFA, n int, opts union.Options) []int {
	pl, _ := planFor(m)
	var word []int
	pl.Warm(n, opts, func(r *wordRun, v efloat.E) {
		if !v.IsZero() {
			word = r.TopSampler().sampleTop(n)
		}
	})
	return word
}

// wordRun is the word engine's union.Runner: the dense memo tables
// over the plan's frozen index and the prefix-sum weight rows
// (prefix.go). Estimation (estimate / unionEst) runs sequentially on
// the trial's scheduler worker and writes the tables; samplers only
// read them.
type wordRun struct {
	union.Run[*wordRun, *sampler]
	pl     *wordPlan
	finals bitset.Set

	words  dense.Table // rows: states; |L(q, l)| estimates
	unions dense.Table // rows: interned target sets; |∪ L(q', l)|

	// Prefix-sum weight rows (prefix.go), indexed (row, length).
	entryPfx  prefix.Grid
	targetPfx prefix.Grid
	pfx       prefix.Builder
}

// Reset prepares a pooled run for a new trial, keeping every grown
// buffer (memo rows, prefix arrays) at capacity.
func (r *wordRun) Reset() {
	r.words.Reset()
	r.unions.Reset()
	r.entryPfx.Clear()
	r.targetPfx.Clear()
	r.pfx.Reset()
}

// Count sizes the prefix grids for lengths 0..n (Reset cleared them),
// then estimates |∪_{q∈I} L(q, n)|, filling the tables the samplers
// read.
func (r *wordRun) Count(n int) efloat.E {
	r.entryPfx.Grow(r.pl.m.numStates, n)
	r.targetPfx.Grow(len(r.pl.ix.sets), n)
	switch {
	case r.pl.ix.topSet >= 0:
		return r.unionEst(r.pl.ix.topSet, n)
	case len(r.pl.m.initial) == 1:
		return r.estimate(r.pl.m.initial[0], n)
	}
	return efloat.Zero
}

// Keys reports the word and union memo key counts.
func (r *wordRun) Keys() [2]int { return [2]int{r.words.Keys(), r.unions.Keys()} }

// estimate returns the (memoized) estimate of |L(q, l)|.
func (r *wordRun) estimate(q, l int) efloat.E {
	if l == 0 {
		if r.finals.Has(q) {
			return efloat.One
		}
		return efloat.Zero
	}
	if v, ok := r.words.Get(q, l); ok {
		r.MemoHits++
		return v
	}
	// Words starting with different symbols are distinct, so the
	// per-symbol unions, each scaled by its symbol's weight, combine by
	// exact summation.
	r.words.Put(q, l, efloat.Zero)
	total := efloat.Zero
	for i := range r.pl.ix.states[q] {
		en := &r.pl.ix.states[q][i]
		v := efloat.Zero
		if en.set < 0 {
			v = r.estimate(en.targets[0], l-1)
		} else {
			v = r.unionEst(en.set, l-1)
		}
		total = total.Add(v.MulWeight(r.pl.m.weights, en.sym))
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

// unionEst estimates (and memoizes) |∪_{q'∈set} L(q', l)| with the
// harness's union estimator, testing sampled words against the earlier
// branches by subset simulation (NFA acceptance is polynomial).
// Interning means every (state, symbol) pair with the same target set
// shares this cell.
func (r *wordRun) unionEst(set, l int) efloat.E {
	if v, ok := r.unions.Get(set, l); ok {
		r.MemoHits++
		return v
	}
	r.unions.Put(set, l, efloat.Zero)
	total := r.Union(r.pl.ix.sets[set], l, func(t int) efloat.E { return r.estimate(t, l) },
		func(j int) uint64 { return cellSite(set, l, j) })
	r.unions.Put(set, l, total)
	return total
}

// cellSite names the sampling site of union branch j at cell (set, l)
// for sub-RNG derivation. Unlike the tree engine's per-trial sequence
// counter, the site depends only on the cell identity, so the estimate
// of every memo cell is a pure function of (seed, automaton), whatever
// order the cells are evaluated in.
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
