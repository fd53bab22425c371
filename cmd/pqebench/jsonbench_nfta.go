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
// UREstimate end to end and raw counting on a prebuilt automaton, at
// each worker count.
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
