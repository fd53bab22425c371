package testkit

import (
	"testing"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/gen"
	"pqe/internal/pdb"
)

// TestWeightedRational checks both engines' weighted counts — the tree
// engine on every shape, the string engine on the paths — against the
// exact rational probability, on random rational instances where every
// fifth fact is set to probability 0 or 1 so zero weights drop
// transitions. Each check is retried with fresh seeds and charges
// checkDelta to the suite budget, as RunDifferential's checks do.
func TestWeightedRational(t *testing.T) {
	cfg := Defaults()
	b := &Budget{Cap: budgetCap}
	queries := []*cq.Query{cq.PathQuery("R", 2), cq.PathQuery("R", 3), cq.CycleQuery("C", 3), cq.StarQuery("S", 3)}
	for i := 0; i < 8; i++ {
		q := queries[i%len(queries)]
		rational := gen.Instance(q, gen.Config{FactsPerRelation: 3, DomainSize: 2, Model: gen.ProbRandomRational, Seed: int64(i + 1)})
		h := pdb.Empty()
		for j, f := range rational.DB().Facts() {
			p := rational.ProbAt(j)
			if j%5 == 4 {
				p = pdb.NewProb(int64(j/5%2), 1)
			}
			h.Add(f, p)
		}
		want := exact.MustPQE(q, h)
		c := &Case{Seed: int64(i + 1), Index: i, Shape: q.String(), Model: gen.ProbRandomRational, Query: q, H: h}
		type engine struct {
			name string
			site uint64
			eval func(*cq.Query, *pdb.Probabilistic, core.Options) (float64, error)
		}
		engines := []engine{{"pqe/nfta", sitePQE, core.PQEEstimate}}
		if q.IsPath() {
			engines = append(engines, engine{"pqe/path-nfa", sitePathPQE, core.PathPQEEstimate})
		}
		t.Logf("%s: exact %s", q, want.FloatString(6))
		for _, en := range engines {
			var err error
			for a := 0; a <= cfg.Retries; a++ {
				var v float64
				if v, err = en.eval(q, h, core.Options{Epsilon: cfg.Epsilon, Trials: cfg.Trials, Seed: evalSeed(c, en.site, a)}); err == nil {
					if err = CheckRel(want, v, cfg.Tolerance()); err == nil {
						break
					}
				}
			}
			b.Charge(cfg.checkDelta())
			if err != nil {
				t.Errorf("%s on %s, exact %v: %v\nH=%s", en.name, q, want.FloatString(6), err, h)
			}
		}
	}
	if !b.Ok() {
		t.Errorf("false-failure budget exceeded: spent %.3g > cap %.3g", b.Spent, b.Cap)
	}
}
