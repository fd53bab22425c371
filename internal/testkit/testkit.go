// Package testkit is the randomized differential-verification subsystem
// of the repository: it generates small seeded (query, probabilistic
// database) instances across the paper's query families and all three
// probability models, evaluates every applicable engine on each — the
// Theorem 3 NFTA pipeline, the Theorem 2 string pipeline, the Theorem 1
// weighted variants, the Monte Carlo and intensional (lineage/OBDD)
// baselines, the Dalvi–Suciu safe plan — and checks them against the
// brute-force oracles of internal/exact with statistically sound
// assertions (see compare.go for the failure-probability accounting).
// Metamorphic properties (metamorphic.go) cover contracts no single
// engine run can witness: probability monotonicity, session rebinding,
// MaxProcs bit-identity, relabeling invariance and union-bound
// consistency. A failing instance is minimized by the shrinker
// (shrink.go) and reported with a replayable seed.
//
// The suite exists because the counting engines are rewritten for
// performance PR after PR: a silently biased estimator passes every
// hand-written unit test, but not a few hundred randomized instances
// compared against ground truth. DESIGN.md §9 documents the
// architecture, the assertion methodology, and the mutations the suite
// demonstrably catches.
package testkit

import (
	"fmt"
	"math/rand"

	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/pdb"
	"pqe/internal/splitmix"
)

// MaxFacts bounds generated instance sizes so the 2^|D| exact oracles
// stay feasible (2^14 worlds per oracle call).
const MaxFacts = 14

// Case is one replayable differential-test instance. NewCase(seed, index)
// regenerates it exactly; a shrunk case (Shrunk true) is no longer
// derivable from the seed and is reported inline instead.
type Case struct {
	Seed   int64
	Index  int
	Shape  string
	Model  gen.ProbModel
	Query  *cq.Query
	H      *pdb.Probabilistic
	Shrunk bool
}

// caseSalt separates case-generation streams from the evaluation-seed
// streams derived in runner.go.
const caseSalt = 0x7e57c0de

// NewCase deterministically derives the index-th case of the suite with
// the given master seed: a shape from the paper's query families (paths,
// stars, snowflakes, cycles, random SJF queries), a probability model,
// and a matching random instance small enough for the exact oracles.
func NewCase(seed int64, index int) *Case {
	s := splitmix.Derive(seed, caseSalt, index)
	rng := rand.New(rand.NewSource(int64(s.Uint64() >> 1)))
	shapes := []string{"path2", "path3", "path4", "star2", "star3", "snowflake", "cycle3", "random"}
	shape := shapes[rng.Intn(len(shapes))]
	model := gen.ProbModel(rng.Intn(3))
	sub := rng.Int63()

	var q *cq.Query
	var h *pdb.Probabilistic
	switch shape {
	case "path2", "path3", "path4":
		n := int(shape[4] - '0')
		q = cq.PathQuery("R", n)
		h = gen.SparsePathInstance(q, 1+rng.Intn(2), rng.Intn(2), model, sub)
	case "star2", "star3":
		n := int(shape[4] - '0')
		q = cq.StarQuery("S", n)
		h = gen.Instance(q, gen.Config{
			FactsPerRelation: 2 + rng.Intn(2),
			DomainSize:       2 + rng.Intn(3),
			Model:            model,
			Seed:             sub,
		})
	case "snowflake":
		q = cq.SnowflakeQuery("F", 2, 1)
		h = gen.SnowflakeInstance(q, 1+rng.Intn(2), 1, model, sub)
	case "cycle3":
		q = cq.CycleQuery("C", 3)
		h = gen.Instance(q, gen.Config{
			FactsPerRelation: 2 + rng.Intn(2),
			DomainSize:       2 + rng.Intn(2),
			Model:            model,
			Seed:             sub,
		})
	default: // random SJF conjunctive query
		q = randomSJFQuery(rng)
		h = gen.Instance(q, gen.Config{
			FactsPerRelation: 2 + rng.Intn(2),
			DomainSize:       2 + rng.Intn(2),
			Model:            model,
			Seed:             sub,
		})
	}
	h = capFacts(h, MaxFacts)
	return &Case{Seed: seed, Index: index, Shape: shape, Model: model, Query: q, H: h}
}

// randomSJFQuery draws a small self-join-free CQ of 1–3 atoms with
// arities 1–2 over a shared variable pool, so atoms connect (or stay
// disconnected) at random. Repeated variables within an atom are
// allowed — R(x,x) is a legal CQ atom and has bitten engines before.
func randomSJFQuery(rng *rand.Rand) *cq.Query {
	pool := []string{"x", "y", "z", "u"}
	n := 1 + rng.Intn(3)
	atoms := make([]cq.Atom, n)
	for i := range atoms {
		vars := make([]string, 1+rng.Intn(2))
		for j := range vars {
			vars[j] = pool[rng.Intn(len(pool))]
		}
		atoms[i] = cq.NewAtom(fmt.Sprintf("Q%d", i), vars...)
	}
	return cq.New(atoms...)
}

// capFacts truncates the instance to its first max facts (in fact
// ordering) — a safety net keeping every generated case within reach of
// the brute-force oracles.
func capFacts(h *pdb.Probabilistic, max int) *pdb.Probabilistic {
	if h.Size() <= max {
		return h
	}
	out := pdb.Empty()
	for i, f := range h.DB().Facts() {
		if i == max {
			break
		}
		out.Add(f, h.ProbAt(i))
	}
	return out
}
