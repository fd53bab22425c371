// Package core realizes the paper's three algorithms end to end:
//
//	PathEstimate (Theorem 2): uniform reliability of self-join-free path
//	    queries via the Section 3 NFA construction and CountNFA;
//	UREstimate (Theorem 3): uniform reliability of self-join-free
//	    bounded-hypertree-width queries via the Proposition 1 augmented
//	    NFTA and CountNFTA;
//	PQEEstimate (Theorem 1): probabilistic query evaluation via the
//	    Section 5 multiplier construction.
//
// It also classifies queries along the axes of Table 1 (bounded
// hypertree width, self-join-freeness, safety) and routes evaluation
// accordingly: safe queries go to the exact Dalvi–Suciu safe plan,
// unsafe bounded-width SJF queries to the FPRAS, and everything else is
// reported as open (exactly the open cells of Table 1).
package core

import (
	"context"
	"errors"

	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/union"
)

// Options configures the estimators.
type Options struct {
	// Epsilon is the target relative error of a single FPRAS trial, in
	// (0,1); the answer is the median of the trials. Default 0.1. It is
	// not the answer's certified error: after an early anytime stop the
	// median is only certified to (1+ε)²/(1−ε) − 1 (ROADMAP item 2).
	Epsilon float64
	// Trials is the number of independent estimates whose median is
	// taken. Default 5.
	Trials int
	// Samples overrides the per-overlap sample count (0 = derived from
	// Epsilon).
	Samples int
	// Seed makes the estimators deterministic. Default 1.
	Seed int64
	// MaxWidth caps the hypertree width searched for. 0 means |Q|.
	MaxWidth int
	// Strategy selects how Evaluate routes: "" (the session's Strategy,
	// else "auto") runs the cost-based router of internal/router —
	// Table 1 classification plus a small-lineage exact route;
	// "force-<engine>" (safeplan, obdd, lineage, nfta, nfa, montecarlo)
	// pins one strategy unconditionally. The anytime rule: a routed
	// call's FPRAS counts always stop sequentially; the direct entry
	// points (PQEEstimate, UREstimate, PathEstimate, PathPQEEstimate,
	// UniformReliability) do not route, and stop sequentially exactly
	// when Strategy or Delta is set, else run the fixed Trials schedule.
	Strategy string
	// Delta is the anytime stopping certificate's failure-probability
	// target in (0,1); ≤ 0 uses the engines' default. Setting it > 0
	// also enables sequential stopping in the direct entry points.
	Delta float64
	// MaxProcs bounds the workers of the counters' unified scheduler,
	// which dispatches whole trials and chunks of their overlap-sampling
	// loops (0 means 1). Results are identical across MaxProcs settings
	// for a fixed Seed.
	MaxProcs int
	// Obs, when non-nil, attaches the unified telemetry sinks to the
	// pipeline: stage spans for every construction and counting phase,
	// registry counters (pqe_build_* plus the engines' countnfta_* /
	// countnfa_* families), and per-trial convergence records. When nil,
	// an Estimator still keeps a private registry so BuildStats works;
	// tracing and convergence stay off.
	Obs *obs.Scope
	// Ctx, when non-nil, bounds the call: the FPRAS sampling loops
	// observe cancellation at every trial-batch boundary (plus queued
	// trials and overlap dispatches) and the estimate entry points return
	// Ctx.Err() instead of a value. Construction stages are not
	// interruptible — a deadline that expires mid-build is reported at
	// the next check. Nil means no deadline (the previous behaviour).
	Ctx context.Context
	// Shard, when non-nil, distributes the FPRAS counting phases across
	// worker processes (internal/shard.Pool). Construction, routing and
	// post-counting scaling stay on the coordinator; the trial schedule
	// is partitioned into contiguous ranges whose merged upper median is
	// bit-identical to the local run at any worker count.
	Shard Sharder
}

// ctxErr surfaces a cancelled call's context error (nil Ctx never
// cancels).
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// anytime reports whether the FPRAS counting calls use sequential
// stopping, by the rule documented on Options.Strategy.
func (o Options) anytime() bool { return o.Strategy != "" || o.Delta > 0 }

// countOptions are the options of one counting call, for either
// engine.
func (o Options) countOptions(sc *obs.Scope) union.Options {
	return union.Options{
		Epsilon:  o.Epsilon,
		Trials:   o.Trials,
		Samples:  o.Samples,
		Seed:     o.seed(),
		Anytime:  o.anytime(),
		Delta:    o.Delta,
		MaxProcs: o.MaxProcs,
		Obs:      sc,
		Ctx:      o.Ctx,
	}
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// ErrUnsupported is returned for queries outside the paper's FPRAS
// class (self-joins, or no decomposition within the width cap) — the
// open cells of Table 1.
var ErrUnsupported = errors.New("core: query outside the supported class (Table 1 open cell)")

// Classification places a query in the Table 1 landscape.
type Classification struct {
	SelfJoinFree bool
	Width        int  // minimal (generalized) hypertree width found, 0 if not decomposed
	BoundedHW    bool // decomposition found within the width cap
	Safe         bool // hierarchical (for SJF queries ⇔ safe)
	Path         bool
}

// Classify computes the Table 1 coordinates of a query (maxWidth ≤ 0
// means |Q|). Like Evaluate it is a one-shot over the session code: a
// session without an instance, whose stages run with telemetry off.
func Classify(q *cq.Query, maxWidth int) Classification {
	return (&Estimator{q: q, opts: Options{MaxWidth: maxWidth}}).classification()
}

// PathEstimate approximates UR(Q, D) for a self-join-free path query
// over a database of binary facts (Theorem 2), within (1±ε) with high
// probability, in time poly(|Q|, |D|, 1/ε). One-shot wrapper over
// Estimator; reuse an Estimator for repeated evaluations.
func PathEstimate(q *cq.Query, d *pdb.Database, opts Options) (efloat.E, error) {
	return NewUREstimator(q, d, opts).PathEstimate(opts)
}

// UREstimate approximates UR(Q, D) for a self-join-free conjunctive
// query of bounded hypertree width (Theorem 3).
func UREstimate(q *cq.Query, d *pdb.Database, opts Options) (efloat.E, error) {
	return NewUREstimator(q, d, opts).UREstimate(opts)
}

// PQEEstimate approximates Pr_H(Q) for a self-join-free conjunctive
// query of bounded hypertree width over a probabilistic database with
// rational probabilities (Theorem 1), within (1±ε) with high
// probability, in time poly(|Q|, |H|, 1/ε).
func PQEEstimate(q *cq.Query, h *pdb.Probabilistic, opts Options) (float64, error) {
	return NewEstimator(q, h, opts).PQEEstimate(opts)
}

// PathPQEEstimate approximates Pr_H(Q) for a self-join-free path query
// over binary relations using the string-automaton pipeline: the
// Section 3 NFA with string multiplier gadgets (footnote 2 of §5.1) and
// CountNFA. Functionally equivalent to PQEEstimate on path queries; it
// exists because paths need no tree machinery at all, and serves as the
// E10 ablation.
func PathPQEEstimate(q *cq.Query, h *pdb.Probabilistic, opts Options) (float64, error) {
	return NewEstimator(q, h, opts).PathPQEEstimate(opts)
}

// Method identifies how Evaluate computed its answer.
type Method string

const (
	MethodSafePlan   Method = "safe-plan (exact, Dalvi–Suciu)"
	MethodFPRASTree  Method = "fpras (NFTA, Theorem 1)"
	MethodFPRASPath  Method = "fpras (path NFA, Theorem 2)"
	MethodOBDD       Method = "obdd-wmc (exact, lineage OBDD)"
	MethodLineage    Method = "lineage-wmc (exact, Shannon expansion)"
	MethodMonteCarlo Method = "monte-carlo (additive sampling baseline)"
)

// Result is the outcome of Evaluate.
type Result struct {
	Probability float64
	Exact       bool
	Method      Method
	Class       Classification
	// Reason explains the routing decision.
	Reason string

	// trialsSaved is how many trials the FPRAS engine's anytime
	// certificate spared (router_trials_saved_total).
	trialsSaved int
}

// Evaluate routes a query to the best applicable algorithm through
// internal/router, mirroring Table 1: safe SJF queries get the exact
// safe plan, provably small lineages exact weighted model counting,
// unsafe SJF queries of bounded width the combined-complexity FPRAS
// (the path NFA for paths, the NFTA otherwise); the rest is
// unsupported (open). opts.Strategy "force-<engine>" pins one engine.
func Evaluate(q *cq.Query, h *pdb.Probabilistic, opts Options) (Result, error) {
	return NewEstimator(q, h, opts).Evaluate(opts)
}
