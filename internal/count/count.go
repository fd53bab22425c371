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
// The engine runs on the union estimator harness (internal/union),
// which owns the call around it — options, entry points, telemetry,
// the pools of runs and samplers, the union-cell estimate and its
// overlap-sampling dispatch — and which the string engine (internal/nfa)
// runs too. This package supplies the tree kernels: the interned plan
// (plan.go), the run's memo tables and prefix rows (prefix.go), the
// tree and forest sampler (sampler.go) and the sequential site rule.
package count

import (
	"pqe/internal/dense"
	"pqe/internal/efloat"
	"pqe/internal/nfta"
	"pqe/internal/prefix"
	"pqe/internal/trial"
	"pqe/internal/union"
)

// Options is the harness's union.Options under its old name; it exists
// only because perfbench/ compiles against it.
type Options = union.Options

// Trees approximates |L_n(T)| for a λ-free NFTA, within relative error ε
// with high probability (median of independent trials).
func Trees(a *nfta.NFTA, n int, opts union.Options) efloat.E {
	return Estimate(a, n, opts).Value
}

// Estimate is Trees with the trial driver's accounting: the median plus
// how many trials ran and how many the anytime certificate saved.
func Estimate(a *nfta.NFTA, n int, opts union.Options) trial.Result {
	pl, hit := planFor(a)
	return pl.Estimate(hit, n, opts)
}

// TreesRange executes trials [lo, hi) of the fixed Trials schedule and
// returns their estimates in trial order, bit-identical to the same
// slice of a local Trees call (see union.Plan.Range).
func TreesRange(a *nfta.NFTA, n int, opts union.Options, lo, hi int) ([]efloat.E, error) {
	pl, hit := planFor(a)
	return pl.Range(hit, n, opts, lo, hi)
}

// SampleTree draws one near-uniform tree from L_n(T), or nil if the
// language is (estimated) empty. It draws from the first trial of the
// options' schedule.
func SampleTree(a *nfta.NFTA, n int, opts union.Options) *nfta.Tree {
	pl, _ := planFor(a)
	var tree *nfta.Tree
	pl.Warm(n, opts, func(r *run, v efloat.E) {
		if !v.IsZero() {
			tree = r.TopSampler().sampleTree(a.Initial(), n)
		}
	})
	return tree
}

// run is the tree engine's union.Runner: the dense memo tables and
// prefix rows keyed to the plan's geometry. Estimation (treeEst /
// symbolUnion / forestEst) runs sequentially on the trial's scheduler
// worker and writes the tables; samplers only read them.
type run struct {
	union.Run[*run, *sampler]
	pl *plan

	trees   dense.Table // rows: states
	unions  dense.Table // rows: multi-branch (state, symbol) slots
	forests dense.Table // rows: tuple IDs

	// Prefix-sum weight rows (prefix.go), indexed (row, size).
	entryPfx  prefix.Grid
	branchPfx prefix.Grid
	splitPfx  prefix.Grid
	pfx       prefix.Builder

	siteSeq uint64 // sampling-site counter for sub-RNG derivation
}

// Reset prepares a pooled run for a new trial, keeping every grown
// buffer (memo rows, prefix arrays, arena chunks) at capacity.
func (r *run) Reset() {
	r.trees.Reset()
	r.unions.Reset()
	r.forests.Reset()
	r.entryPfx.Clear()
	r.branchPfx.Clear()
	r.splitPfx.Clear()
	r.pfx.Reset()
	r.siteSeq = 0
}

// Count sizes the prefix grids for sizes 0..n (Reset cleared them), then
// estimates |T(initial, n)|, filling the tables the samplers read.
func (r *run) Count(n int) efloat.E {
	r.entryPfx.Grow(len(r.pl.states), n)
	r.branchPfx.Grow(r.pl.slots, n)
	r.splitPfx.Grow(len(r.pl.tuples), n)
	return r.treeEst(r.pl.a.Initial(), n)
}

// Keys reports the tree and forest memo key counts.
func (r *run) Keys() [2]int { return [2]int{r.trees.Keys(), r.forests.Keys()} }

// treeEst returns the (memoized) estimate of |T(q, n)|: the sum over
// root symbols of the symbol's weight times its union estimate.
func (r *run) treeEst(q, n int) efloat.E {
	if n <= 0 {
		return efloat.Zero
	}
	if v, ok := r.trees.Get(q, n); ok {
		r.MemoHits++
		return v
	}
	// Guard against reentrancy: with n ≥ 1 the recursion strictly
	// decreases sizes (forests of n−1 < n), so plain memoization
	// suffices; pre-store zero to be safe against pathological input.
	r.trees.Put(q, n, efloat.Zero)
	total := efloat.Zero
	for i := range r.pl.states[q] {
		total = total.Add(r.symbolUnion(q, i, n).MulWeight(r.pl.weights, r.pl.states[q][i].sym))
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
		r.MemoHits++
		return v
	}
	r.unions.Put(en.slot, n, efloat.Zero)
	total := r.Union(tuples, n, func(tid int) efloat.E { return r.forestEst(tid, n-1) }, r.nextSite)
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

// nextSite is the tree engine's site rule: the next value of the run's
// sequential counter. Estimation runs in one fixed order per trial, so
// the k-th overlap term of a trial always draws on site k.
func (r *run) nextSite(int) uint64 {
	site := r.siteSeq
	r.siteSeq++
	return site
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
		r.MemoHits++
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
