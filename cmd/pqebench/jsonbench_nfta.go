package main

import (
	"fmt"

	"pqe/internal/core"
	"pqe/internal/count"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/nfta"
	"pqe/internal/obs"
	"pqe/internal/union"
)

// heavyOverlap mirrors the count package's benchmark automaton: six
// fully redundant branches under one root symbol keep the union
// estimator in its overlap-sampling loop.
func heavyOverlap() *nfta.NFTA {
	a := nfta.New()
	top := a.AddState()
	for i := 0; i < 6; i++ {
		s := a.AddState()
		a.AddTransition(s, "a", s)
		a.AddTransition(s, "b")
		a.AddTransition(top, "f", s)
	}
	a.SetInitial(top)
	return a
}

// nftaStats are the tree engine's effort counters a countnfta row
// reports.
var nftaStats = []string{"tree_keys", "forest_keys", "union_samples", "rejections", "wall_ns"}

// benchCountNFTA is the CountNFTA (tree engine) suite: Proposition 1
// UREstimate end to end, Theorem 1 PQEEstimate on rational
// probabilities (the weighted count) and raw counting on a prebuilt
// automaton, at each worker count.
func benchCountNFTA(cfg benchConfig) (*benchFile, error) {
	out := cfg.file("countnfta")
	ur := []struct {
		name string
		q    *cq.Query
	}{
		{"UREstimate/path3", cq.PathQuery("R", 3)},
		{"UREstimate/star3", cq.StarQuery("S", 3)},
		{"UREstimate/triangle", cq.CycleQuery("C", 3)},
	}
	for _, w := range cfg.workerCounts() {
		for _, tc := range ur {
			d := gen.Instance(tc.q, gen.Config{FactsPerRelation: 3, DomainSize: 3, Seed: 2}).DB()
			out.Results = append(out.Results, engineRow(tc.name, w, "countnfta", nftaStats, func(sc *obs.Scope, i int) {
				v, err := core.UREstimate(tc.q, d, core.Options{
					Epsilon: cfg.eps, Seed: cfg.seed + int64(i), MaxProcs: w, Obs: sc,
				})
				if err != nil || v.IsZero() {
					panic(fmt.Sprintf("%s: err=%v v=%v", tc.name, err, v))
				}
			}))
		}

		// The rational triangle: 9 facts per relation, dᵢ ≤ 8, counted
		// with the multipliers as symbol weights.
		tri := cq.CycleQuery("C", 3)
		h := gen.Instance(tri, gen.Config{FactsPerRelation: 9, DomainSize: 4, Model: gen.ProbRandomRational, Seed: 21})
		out.Results = append(out.Results, engineRow("PQEEstimate/triangle_rational", w, "countnfta", nftaStats, func(sc *obs.Scope, i int) {
			p, err := core.PQEEstimate(tri, h, core.Options{Epsilon: cfg.eps, Seed: cfg.seed + int64(i), MaxProcs: w, Obs: sc})
			if err != nil || p <= 0 {
				panic(fmt.Sprintf("PQEEstimate/triangle_rational: err=%v p=%v", err, p))
			}
		}))

		a := heavyOverlap()
		out.Results = append(out.Results, engineRow("CountTrees/heavyOverlap/n=24", w, "countnfta", nftaStats, func(sc *obs.Scope, i int) {
			v := count.Trees(a, 24, union.Options{
				Epsilon: cfg.eps, Trials: 3, Seed: cfg.seed + int64(i), MaxProcs: w, Obs: sc,
			})
			if v.IsZero() {
				panic("CountTrees/heavyOverlap: estimate collapsed to zero")
			}
		}))
	}
	return out, nil
}
