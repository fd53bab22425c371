package pqe

import (
	"math/big"

	"pqe/internal/core"
)

// Estimator is a reusable evaluation session for one query–database
// pair. The one-shot functions (Probability, Estimate, SampleWorld, …)
// rebuild the hypertree decomposition and the automata on every call;
// an Estimator builds each of these stages at most once and reuses them
// across calls, so repeated evaluations — an ε-sweep, many SampleWorld
// draws, a posterior computation — pay the construction cost once.
//
// SetProbabilities rebinds the session to a database with the same
// facts but different probabilities; only the probability-dependent
// multiplier weighting is rebuilt, the decomposition and base automata
// survive. Passing a database whose fact set or ordering differs
// rebuilds the database-keyed stages instead — results always match a
// fresh estimator. ApplyDelta mutates the database through the session
// and maintains the caches incrementally: reweights rebuild only the
// weighting, inserts and deletes re-derive only the automaton parts
// over the changed relations. BuildStats exposes the construction
// counters so callers can observe the cache behaviour.
//
// An Estimator is safe for concurrent use. Calls may overlap: each
// lazily built stage is built once, by whichever call needs it first,
// and the counting runs of concurrent calls proceed in parallel with
// results bit-identical to serial calls. ApplyDelta and
// SetProbabilities wait for in-flight calls to finish and hold new ones
// until the session is updated.
type Estimator struct {
	est  *core.Estimator
	opts *Options
}

// NewEstimator prepares an evaluation session for Q over the database.
// opts may be nil; it supplies both the construction knobs (MaxWidth)
// and the default counting knobs for calls that pass nil options.
// Nothing is built until the first call that needs it.
func NewEstimator(q *Query, d *Database, opts *Options) *Estimator {
	return &Estimator{
		est:  core.NewEstimator(q.q, d.h, opts.core()),
		opts: opts,
	}
}

func (e *Estimator) callOpts(opts *Options) core.Options {
	if opts == nil {
		opts = e.opts
	}
	return opts.core()
}

// BuildStats counts how many times each construction stage has run on
// this session. Repeated evaluations leave the probability-independent
// counters unchanged; SetProbabilities grows only Weightings.
type BuildStats struct {
	// Decompositions counts hypertree decomposition searches.
	Decompositions int
	// URReductions counts tree-automaton (Proposition 1) constructions.
	URReductions int
	// PathAutomata counts string-automaton (Section 3) constructions.
	PathAutomata int
	// Weightings counts probability-multiplier expansions — the only
	// stage that reruns after SetProbabilities.
	Weightings int
	// IncrementalUR and IncrementalPath count the constructions (subsets
	// of URReductions and PathAutomata) that were served incrementally
	// after an ApplyDelta: only the automaton parts over the mutated
	// relations were re-derived.
	IncrementalUR   int
	IncrementalPath int
}

// BuildStats returns the construction counters accumulated so far.
func (e *Estimator) BuildStats() BuildStats {
	s := e.est.BuildStats()
	return BuildStats{
		Decompositions:  s.Decompositions,
		URReductions:    s.URReductions,
		PathAutomata:    s.PathAutomata,
		Weightings:      s.Weightings,
		IncrementalUR:   s.IncrementalUR,
		IncrementalPath: s.IncrementalPath,
	}
}

// SetProbabilities rebinds the session to a database with the same
// facts but (possibly) different probabilities. When the fact sequence
// is unchanged, the decomposition and the base automata survive and
// only the multiplier weighting is rebuilt on the next probability
// query; a changed (or reordered) fact sequence rebuilds the
// database-keyed stages too, since the automata encode the fact
// ordering. Either way the session behaves exactly like a fresh
// estimator on the new database.
func (e *Estimator) SetProbabilities(d *Database) error {
	return e.est.SetProbabilities(d.h)
}

// Probability computes Pr_H(Q) like the package-level Probability,
// over the session's caches. opts may be nil (the constructor's options
// apply).
func (e *Estimator) Probability(opts *Options) (Result, error) {
	res, err := e.est.Evaluate(e.callOpts(opts))
	if err != nil {
		return Result{}, err
	}
	return Result{
		Probability:  res.Probability,
		Exact:        res.Exact,
		Method:       string(res.Method),
		Reason:       res.Reason,
		Width:        res.Class.Width,
		Safe:         res.Class.Safe,
		SelfJoinFree: res.Class.SelfJoinFree,
	}, nil
}

// Estimate always runs the Theorem 1 FPRAS over the session's caches
// (no safe-plan routing). opts may be nil.
func (e *Estimator) Estimate(opts *Options) (float64, error) {
	return e.est.PQEEstimate(e.callOpts(opts))
}

// UniformReliability approximates UR(Q, D) over the session's caches,
// routing path queries through the string pipeline like the
// package-level UniformReliability. opts may be nil.
func (e *Estimator) UniformReliability(opts *Options) (*big.Float, error) {
	c, err := e.est.UniformReliability(e.callOpts(opts))
	if err != nil {
		return nil, err
	}
	return c.BigFloat(), nil
}

// SampleWorld draws a possible world conditioned on Q over the
// session's caches; unlike the package-level SampleWorld, repeated
// draws (with distinct Seeds in opts) reuse the weighted automaton.
// It returns nil with no error when Pr_H(Q) = 0.
func (e *Estimator) SampleWorld(opts *Options) (*World, error) {
	mask, facts, err := e.est.SampleWorld(e.callOpts(opts))
	if err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, nil
	}
	return &World{Present: mask, facts: facts}, nil
}

// SampleSatisfyingSubinstance draws a near-uniform satisfying
// subinstance over the session's caches. It returns nil with no error
// when the query is unsatisfiable over the database.
func (e *Estimator) SampleSatisfyingSubinstance(opts *Options) (*World, error) {
	mask, facts, err := e.est.SampleSatisfying(e.callOpts(opts))
	if err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, nil
	}
	return &World{Present: mask, facts: facts}, nil
}

// Explain returns the evaluation plan for the session's query, built
// over (and warming) the same caches later evaluations use.
func (e *Estimator) Explain(opts *Options) (string, error) {
	r, err := e.est.Explain(e.callOpts(opts))
	if err != nil {
		return "", err
	}
	return r.String(), nil
}
