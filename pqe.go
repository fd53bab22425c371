// Package pqe approximates the probability of Boolean conjunctive
// queries over tuple-independent probabilistic databases — the
// probabilistic query evaluation (PQE) problem — with guarantees in
// combined complexity.
//
// It implements the FPRAS of van Bremen and Meel, "Probabilistic Query
// Evaluation: The Combined FPRAS Landscape" (PODS 2023): for any
// self-join-free conjunctive query of bounded hypertree width, Pr_H(Q)
// is approximated to a (1±ε) factor with high probability in time
// polynomial in the query length, the database size and 1/ε — even for
// queries that are #P-hard to evaluate exactly, such as path queries of
// length ≥ 3. Internally the query and database are compiled into a
// non-deterministic finite tree automaton whose trees of a fixed size
// encode the satisfying subinstances (weighted by probability
// multiplier gadgets), and the trees are counted with an
// Arenas–Croquevielle–Jayaram–Riveros-style approximate counter.
//
// Safe (hierarchical) queries are answered exactly with a Dalvi–Suciu
// safe plan unless the FPRAS is forced. Self-joins and unbounded-width
// classes are outside the supported landscape (the open cells of the
// paper's Table 1) and are reported as ErrUnsupported.
//
// # Quick start
//
//	q, _ := pqe.ParseQuery("Causes(x,y), Treats(z,y)")
//	db := pqe.NewDatabase()
//	db.AddFact("Causes", big.NewRat(9, 10), "smoking", "cancer")
//	db.AddFact("Treats", big.NewRat(3, 4), "drugX", "cancer")
//	res, _ := pqe.Probability(q, db, nil)
//	fmt.Println(res.Probability, res.Method)
package pqe

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"os"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/hypertree"
	"pqe/internal/lineage"
	"pqe/internal/pdb"
	"pqe/internal/safeplan"
)

// ErrUnsupported is returned for queries outside the paper's landscape:
// self-joins, or no hypertree decomposition within the width cap.
var ErrUnsupported = core.ErrUnsupported

// ErrUnsafe is returned by ExactProbability for queries with no safe
// plan.
var ErrUnsafe = safeplan.ErrUnsafe

// Query is a Boolean conjunctive query.
type Query struct {
	q *cq.Query
}

// ParseQuery parses a conjunctive query written as a comma-separated
// atom list over variables, e.g. "R(x,y), S(y,z)".
func ParseQuery(s string) (*Query, error) {
	q, err := cq.Parse(s)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(s string) *Query {
	q, err := ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return q
}

// PathQuery returns the self-join-free path query
// R1(x1,x2), …, Rn(xn,xn+1) of the paper's 3Path family.
func PathQuery(relPrefix string, n int) *Query {
	return &Query{q: cq.PathQuery(relPrefix, n)}
}

// StarQuery returns the hierarchical (safe) star query
// R1(x,y1), …, Rn(x,yn).
func StarQuery(relPrefix string, n int) *Query {
	return &Query{q: cq.StarQuery(relPrefix, n)}
}

// String renders the query.
func (q *Query) String() string { return q.q.String() }

// Len returns |Q|, the number of atoms.
func (q *Query) Len() int { return q.q.Len() }

// SelfJoinFree reports whether no relation name repeats.
func (q *Query) SelfJoinFree() bool { return q.q.SelfJoinFree() }

// IsPath reports whether the query is a path query.
func (q *Query) IsPath() bool { return q.q.IsPath() }

// Safe reports whether the query admits an exact polynomial-time safe
// plan (for self-join-free queries: the hierarchical property).
func (q *Query) Safe() bool { return safeplan.IsSafe(q.q) }

// HypertreeWidth returns the minimal (generalized) hypertree width
// found for the query, or an error if no decomposition exists.
func (q *Query) HypertreeWidth() (int, error) {
	dec, err := hypertree.Decompose(q.q)
	if err != nil {
		return 0, err
	}
	return dec.Width(), nil
}

// Database is a tuple-independent probabilistic database: a set of
// facts, each with an independent rational probability.
type Database struct {
	h *pdb.Probabilistic
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{h: pdb.Empty()}
}

// AddFact adds a fact with the given probability (nil means 1). Adding
// an existing fact overwrites its probability. The probability must lie
// in [0, 1].
func (d *Database) AddFact(relation string, prob *big.Rat, args ...string) error {
	p := pdb.ProbOne
	if prob != nil {
		if prob.Sign() < 0 || prob.Cmp(big.NewRat(1, 1)) > 0 {
			return fmt.Errorf("pqe: probability %v outside [0,1]", prob)
		}
		p = pdb.ProbFromRat(prob)
	}
	d.h.Add(pdb.NewFact(relation, args...), p)
	return nil
}

// Size returns the number of facts.
func (d *Database) Size() int { return d.h.Size() }

// String renders the database in the textual format of ParseDatabase.
func (d *Database) String() string { return pdb.FormatString(d.h) }

// ParseDatabase reads a database in the textual format
//
//	R(a, b) : 3/4
//	S(b)    : 0.25
//	T(a, c)            # probability 1
//
// Blank lines and '#' comments are ignored.
func ParseDatabase(r io.Reader) (*Database, error) {
	h, err := pdb.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Database{h: h}, nil
}

// LoadDatabase reads a database file in the ParseDatabase format.
func LoadDatabase(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseDatabase(f)
}

// Options tunes the estimators. The zero value (or nil) uses defaults:
// ε = 0.1, 5 trials, derived sample counts, seed 1.
type Options struct {
	// Epsilon is the target relative error of a single FPRAS trial, in
	// (0, 1); the answer is the median of the trials. It is not the
	// answer's certified error: after an early anytime stop the median
	// is only certified to (1+ε)²/(1−ε) − 1 (ROADMAP item 2).
	Epsilon float64
	// Trials is the number of independent estimates whose median is
	// returned (confidence boosting).
	Trials int
	// Samples overrides the per-overlap sample count (0 = derive from
	// Epsilon).
	Samples int
	// Seed makes runs deterministic; 0 means seed 1.
	Seed int64
	// MaxWidth caps the hypertree width searched (0 = |Q|).
	MaxWidth int
	// Strategy selects how Probability routes. "" (the session's
	// Strategy, else "auto") runs the cost-based router: hierarchical
	// queries go to the exact safe plan, provably small lineages to
	// exact weighted model counting (OBDD with Shannon-expansion
	// fallback), path queries over binary facts to the string-automaton
	// FPRAS, and the rest of the tractable landscape to the
	// tree-automaton FPRAS, whose engines stop sequentially (anytime,
	// see Delta). "force-<engine>" (safeplan, obdd, lineage, nfta, nfa,
	// montecarlo) pins one strategy unconditionally. Estimate and
	// UniformReliability do not route; there a non-empty Strategy only
	// selects the anytime schedule.
	Strategy string
	// Delta is the failure-probability target of the anytime stopping
	// certificate in (0,1); ≤ 0 uses a default matching the fixed
	// 5-trial schedule (δ ≈ 0.1). In Estimate and UniformReliability,
	// setting Delta > 0 opts the FPRAS engines into sequential stopping:
	// trials run in deterministic batches and the call stops as soon as
	// the executed trials certify the (ε, δ) target, with the fixed
	// Trials count as a hard cap. Results stay bit-identical for a fixed
	// Seed at every MaxProcs setting.
	Delta float64
	// MaxProcs bounds the workers of the counting engines' unified
	// work-stealing scheduler, which dispatches whole trials and chunks
	// of their overlap-sampling loops onto one pool
	// (runtime.NumCPU() is a good setting for large instances). For a
	// fixed Seed the result is bit-identical at every MaxProcs value.
	// 0 means 1.
	MaxProcs int
	// Ctx, when non-nil, bounds the evaluation: the FPRAS sampling
	// loops observe cancellation at every trial-batch boundary and the
	// call returns Ctx.Err() instead of an estimate. Automaton
	// construction stages are not interruptible; a deadline expiring
	// mid-build is reported at the next boundary. A nil Ctx (the
	// default) never cancels. Cancellation does not perturb seeded
	// results: a call that runs to completion is bit-identical with or
	// without a Ctx attached.
	Ctx context.Context
	// Telemetry, when non-nil, collects stage traces, pipeline metrics
	// and per-trial convergence records for every evaluation using these
	// options (see NewTelemetry). Collection does not change results:
	// seeded runs stay bit-identical with or without it.
	Telemetry *Telemetry
	// RequestID is an optional correlation ID stamped on the root spans
	// of this evaluation's trace (service callers thread their
	// X-Request-Id here). Purely observational: it never influences
	// results. Ignored when Telemetry is nil.
	RequestID string
	// Shards, when non-nil, distributes the FPRAS counting phases
	// across the pool's worker processes (see NewShardPool). Routing,
	// automaton construction and post-counting scaling stay local; only
	// the embarrassingly parallel trial schedule is farmed out. Results
	// are bit-identical to the in-process run for a fixed Seed.
	Shards *ShardPool
}

func (o *Options) core() core.Options {
	if o == nil {
		return core.Options{}
	}
	c := core.Options{
		Epsilon:  o.Epsilon,
		Trials:   o.Trials,
		Samples:  o.Samples,
		Seed:     o.Seed,
		MaxWidth: o.MaxWidth,
		Strategy: o.Strategy,
		Delta:    o.Delta,
		MaxProcs: o.MaxProcs,
		Obs:      o.Telemetry.scope().WithRequestID(o.RequestID),
		Ctx:      o.Ctx,
	}
	if o.Shards != nil {
		c.Shard = o.Shards.p
	}
	return c
}

// Result reports a probability and how it was computed.
type Result struct {
	// Probability is Pr_H(Q) (exact or a (1±ε)-approximation).
	Probability float64
	// Exact is true when a safe plan produced the value.
	Exact bool
	// Method names the algorithm used.
	Method string
	// Reason explains the routing decision.
	Reason string
	// Width is the (generalized) hypertree width of the query.
	Width int
	// Safe and SelfJoinFree are the query's Table 1 coordinates.
	Safe         bool
	SelfJoinFree bool
}

// Probability computes Pr_H(Q), routing to the best algorithm (see
// Options.Strategy): an exact safe plan for safe queries, exact lineage
// counting for provably small lineages, the combined-complexity FPRAS
// for other unsafe self-join-free queries of bounded hypertree width.
// opts may be nil.
func Probability(q *Query, d *Database, opts *Options) (Result, error) {
	res, err := core.Evaluate(q.q, d.h, opts.core())
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

// Estimate always runs the Theorem 1 FPRAS (no safe-plan routing):
// a (1±ε)-approximation of Pr_H(Q) with high probability, in time
// polynomial in |Q|, |H| and 1/ε. opts may be nil.
func Estimate(q *Query, d *Database, opts *Options) (float64, error) {
	return core.PQEEstimate(q.q, d.h, opts.core())
}

// UniformReliability approximates UR(Q, D): the number of subinstances
// of D (ignoring probabilities) that satisfy Q, per Theorem 3 (or the
// Theorem 2 string-automaton pipeline for path queries). The count is
// returned as a big.Float since it can reach 2^|D|. opts may be nil.
func UniformReliability(q *Query, d *Database, opts *Options) (*big.Float, error) {
	copts := opts.core()
	c, err := core.NewUREstimator(q.q, d.h.DB(), copts).UniformReliability(copts)
	if err != nil {
		return nil, err
	}
	return c.BigFloat(), nil
}

// ExactProbability computes Pr_H(Q) exactly with a Dalvi–Suciu safe
// plan. It returns ErrUnsafe when the query has no safe plan (use
// Estimate or Probability instead).
func ExactProbability(q *Query, d *Database) (*big.Rat, error) {
	return safeplan.Evaluate(q.q, d.h)
}

// BruteForceProbability computes Pr_H(Q) exactly by enumerating all
// 2^|D| subinstances. Only for tiny databases (|D| ≤ 30); intended for
// testing and calibration.
func BruteForceProbability(q *Query, d *Database) (*big.Rat, error) {
	p, err := exact.PQE(q.q, d.h)
	if err != nil {
		return nil, fmt.Errorf("pqe: %w", err)
	}
	return p, nil
}

// LineageInfo describes the DNF lineage of a query over a database —
// the object whose Θ(|D|^|Q|) growth the intensional approach suffers
// from and this library's FPRAS avoids.
type LineageInfo struct {
	Clauses  int
	Literals int
}

// Lineage computes the query's lineage size over the database,
// aborting with an error after limit clauses (0 = no limit). Useful to
// see when the intensional approach stops being feasible.
func Lineage(q *Query, d *Database, limit int) (LineageInfo, error) {
	f, err := lineage.Compute(q.q, d.h.DB(), limit)
	if err != nil {
		return LineageInfo{}, err
	}
	return LineageInfo{Clauses: f.NumClauses(), Literals: f.Size()}, nil
}

// Explain returns a human-readable evaluation plan for the query over
// the database — the Table 1 classification, the chosen algorithm, and
// (for the FPRAS route) the hypertree decomposition and the sizes of
// every automaton the reduction builds — without running the counting
// stage.
func Explain(q *Query, d *Database, opts *Options) (string, error) {
	r, err := core.Explain(q.q, d.h, opts.core())
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

// PosteriorInclusion approximates Pr(f present | Q holds): the
// probability that a specific fact participates in a world where the
// query is true. The fact is given as a relation and arguments, and
// must be in the database. Two FPRAS invocations are used, so a single
// call carries roughly a (1±2ε) guarantee.
func PosteriorInclusion(q *Query, d *Database, opts *Options, relation string, args ...string) (float64, error) {
	return core.PosteriorInclusion(q.q, d.h, pdb.NewFact(relation, args...), opts.core())
}

// World is a sampled possible world: the set of facts present.
type World struct {
	// Present[i] reports whether the i-th fact (in insertion order) is
	// in the world.
	Present []bool
	facts   []pdb.Fact
}

// Facts returns the facts present in the world, rendered as "R(a,b)"
// strings in insertion order.
func (w *World) Facts() []string {
	var out []string
	for i, p := range w.Present {
		if p {
			out = append(out, w.facts[i].Key())
		}
	}
	return out
}

// SampleWorld draws a possible world conditioned on the query being
// satisfied, approximately according to Pr_H(· | Q) — the uniform-
// generation facet of the underlying counting machinery. It returns
// nil with no error when Pr_H(Q) = 0. Use distinct Seeds in opts for
// independent draws.
func SampleWorld(q *Query, d *Database, opts *Options) (*World, error) {
	mask, err := core.SampleWorld(q.q, d.h, opts.core())
	if err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, nil
	}
	return &World{Present: mask, facts: d.h.DB().Facts()}, nil
}

// SampleSatisfyingSubinstance draws a near-uniform satisfying
// subinstance of the database (probabilities ignored; the uniform-
// reliability distribution). It returns nil with no error when the
// query is unsatisfiable over the database.
func SampleSatisfyingSubinstance(q *Query, d *Database, opts *Options) (*World, error) {
	mask, err := core.SampleSatisfying(q.q, d.h.DB(), opts.core())
	if err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, nil
	}
	return &World{Present: mask, facts: d.h.DB().Facts()}, nil
}

// Classify reports the query's coordinates in the paper's Table 1
// landscape.
func Classify(q *Query) (selfJoinFree, boundedWidth, safe bool, width int) {
	c := core.Classify(q.q, 0)
	return c.SelfJoinFree, c.BoundedHW, c.Safe, c.Width
}

// ProbabilityUnion computes Pr(Q₁ ∨ … ∨ Q_k) for a union of
// conjunctive queries whose disjuncts use pairwise-disjoint relation
// sets (which makes them independent under tuple independence):
// Pr = 1 − ∏ᵢ(1 − Pr(Qᵢ)), with each disjunct routed like Probability.
// Unions with shared relations correlate through shared facts — the
// self-join problem, an open cell of the paper's Table 1 — and are
// rejected with ErrUnsupported.
func ProbabilityUnion(queries []*Query, d *Database, opts *Options) (float64, error) {
	qs := make([]*cq.Query, len(queries))
	for i, q := range queries {
		qs[i] = q.q
	}
	return core.EvaluateUnion(qs, d.h, opts.core())
}
