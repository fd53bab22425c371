package main

import (
	"fmt"
	"math"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

// routerWorkload is one query–database pair of the mixed workload. The
// mix mirrors Table 1's rows: a hierarchical (safe) query, an unsafe
// query whose lineage is provably small, and an unsafe instance wide
// enough that only the FPRAS applies.
type routerWorkload struct {
	name string
	q    *cq.Query
	h    *pdb.Probabilistic
}

func routerWorkloads() []routerWorkload {
	star := cq.StarQuery("S", 3)
	path := cq.PathQuery("R", 3)
	return []routerWorkload{
		// Safe: the router answers through the Dalvi–Suciu plan, no
		// sampling at all.
		{"hierarchical/star3", star,
			gen.Instance(star, gen.Config{FactsPerRelation: 6, DomainSize: 4, Model: gen.ProbRandomRational, Seed: 11})},
		// Unsafe but tiny: witness bound 27 ≤ 512, exact OBDD lineage WMC.
		{"small_lineage/path3", path,
			gen.Instance(path, gen.Config{FactsPerRelation: 3, DomainSize: 3, Model: gen.ProbRandomRational, Seed: 12})},
		// Unsafe and wide: witness bound 1000 > 512, routed to the
		// path-NFA FPRAS with anytime stopping.
		{"wide_fpras/path3", path,
			gen.Instance(path, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 13})},
	}
}

// benchRouter is the mixed routed-vs-forced-FPRAS suite. Every workload
// appears twice at each worker count — once under the cost-based router
// ("Routed/…", core.Evaluate: exact routes where they apply, anytime
// sequential stopping on the FPRAS routes) and once through the tree
// FPRAS alone ("ForcedFPRAS/…", core.PQEEstimate on the fixed trial
// schedule). The mode is part of the name so -compare keys rows the
// same way as the other suites.
func benchRouter(cfg benchConfig) (*benchFile, error) {
	out := cfg.file("router")
	modes := []struct {
		prefix string
		eval   func(wl routerWorkload, o core.Options) (core.Result, error)
	}{
		{"Routed", func(wl routerWorkload, o core.Options) (core.Result, error) {
			return core.Evaluate(wl.q, wl.h, o)
		}},
		{"ForcedFPRAS", func(wl routerWorkload, o core.Options) (core.Result, error) {
			p, err := core.PQEEstimate(wl.q, wl.h, o)
			return core.Result{Probability: p, Method: core.MethodFPRASTree}, err
		}},
	}

	// ns_per_op at workers=1 per (workload, mode), for the speedup
	// geomean.
	baseNs := map[string]map[string]int64{}
	for _, m := range modes {
		baseNs[m.prefix] = map[string]int64{}
	}
	for _, w := range cfg.workerCounts() {
		for _, wl := range routerWorkloads() {
			for _, m := range modes {
				var first core.Result
				r := measure(func(sc *obs.Scope, i int) {
					res, err := m.eval(wl, core.Options{Epsilon: cfg.eps, Seed: cfg.seed + int64(i), MaxProcs: w, Obs: sc})
					if err != nil || res.Probability <= 0 {
						panic(fmt.Sprintf("%s/%s: err=%v p=%v", m.prefix, wl.name, err, res.Probability))
					}
					if i == 0 {
						first = res
					}
				})[0]
				r.Name, r.Workers = m.prefix+"/"+wl.name, w
				r.TrialsPerOp = r.perOp("countnfta_trials_total", "countnfa_trials_total")
				r.Method, r.Exact = string(first.Method), first.Exact
				if w == 1 {
					baseNs[m.prefix][wl.name] = r.NsPerOp
				}
				out.Results = append(out.Results, r)
			}
		}
	}

	logSum, n := 0.0, 0
	for name, routed := range baseNs["Routed"] {
		forced := baseNs["ForcedFPRAS"][name]
		if routed > 0 && forced > 0 {
			logSum += math.Log(float64(forced) / float64(routed))
			n++
		}
	}
	if n > 0 {
		out.RoutedSpeedupGeomean = math.Exp(logSum / float64(n))
	}
	return out, nil
}
