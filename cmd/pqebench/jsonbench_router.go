package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

// routerBenchRecord is one row of BENCH_router.json. Every workload
// appears twice — once under the cost-based router ("Routed/…",
// core.Evaluate: exact routes where they apply, anytime sequential
// stopping on the FPRAS routes) and once through the tree FPRAS alone
// ("ForcedFPRAS/…", core.PQEEstimate on the fixed trial schedule). The
// mode is part of the name so the -compare matcher keys rows the same
// way as the other suites.
type routerBenchRecord struct {
	Name        string `json:"name"`
	Workers     int    `json:"workers"`
	Ops         int    `json:"ops"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	// TrialsPerOp is the number of FPRAS trials the counting engines
	// actually executed per evaluation (0 for exact routes), from the
	// countnfta_trials_total / countnfa_trials_total counters of an
	// instrumented pass run after the timed loop.
	TrialsPerOp int64 `json:"trials_per_op"`
	// Method and Exact record where the evaluation went, so a routing
	// change shows up as a diff even when the timing happens to match.
	Method string `json:"method"`
	Exact  bool   `json:"exact"`
}

type routerBenchFile struct {
	Suite     string  `json:"suite"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"num_cpu"`
	Epsilon   float64 `json:"epsilon"`
	Seed      int64   `json:"seed"`
	// RoutedSpeedupGeomean is the geometric mean over the workloads of
	// forced-FPRAS ns_per_op / routed ns_per_op at workers=1 — the
	// "spend only what the target needs" headline. The router's
	// contract is that this stays ≥ 2 on the mixed workload.
	RoutedSpeedupGeomean float64             `json:"routed_speedup_geomean"`
	Results              []routerBenchRecord `json:"results"`
}

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

// trialRuns is the instrumented-pass repetition count behind each
// trials_per_op figure.
const trialRuns = 3

// measureTrials reruns the evaluation under a fresh metrics registry
// and averages the engines' executed-trial counters per op.
func measureTrials(runs int, fn func(sc *obs.Scope, i int)) int64 {
	reg := obs.NewRegistry()
	sc := obs.NewScope(nil, reg, nil)
	for i := 0; i < runs; i++ {
		fn(sc, i)
	}
	total := reg.Counter("countnfta_trials_total").Value() +
		reg.Counter("countnfa_trials_total").Value()
	return total / int64(runs)
}

// runJSONBenchRouter runs the mixed routed-vs-forced-FPRAS workload at
// each worker count and writes BENCH_router.json.
func runJSONBenchRouter(path string, eps float64, seed int64, workers int, stdout io.Writer) error {
	out := routerBenchFile{
		Suite:     "router",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Epsilon:   eps,
		Seed:      seed,
	}
	counts := []int{1}
	if workers > 1 {
		counts = append(counts, workers)
	}

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
	opts := func(i, w int) core.Options {
		return core.Options{Epsilon: eps, Seed: seed + int64(i), MaxProcs: w}
	}

	// ns_per_op at workers=1 per (workload, mode), for the speedup
	// geomean.
	baseNs := map[string]map[string]int64{}
	for _, m := range modes {
		baseNs[m.prefix] = map[string]int64{}
	}

	for _, w := range counts {
		for _, wl := range routerWorkloads() {
			for _, m := range modes {
				var last core.Result
				ops, ns, allocs, bytes := measure(func(i int) {
					res, err := m.eval(wl, opts(i, w))
					if err != nil || res.Probability <= 0 {
						panic(fmt.Sprintf("%s/%s: err=%v p=%v", m.prefix, wl.name, err, res.Probability))
					}
					last = res
				})
				trials := measureTrials(trialRuns, func(sc *obs.Scope, i int) {
					o := opts(i, w)
					o.Obs = sc
					_, _ = m.eval(wl, o)
				})
				if w == 1 {
					baseNs[m.prefix][wl.name] = ns
				}
				out.Results = append(out.Results, routerBenchRecord{
					Name:        m.prefix + "/" + wl.name,
					Workers:     w,
					Ops:         ops,
					NsPerOp:     ns,
					AllocsPerOp: allocs,
					BytesPerOp:  bytes,
					TrialsPerOp: trials,
					Method:      string(last.Method),
					Exact:       last.Exact,
				})
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

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d results, routed speedup geomean %.2fx)\n",
		path, len(out.Results), out.RoutedSpeedupGeomean)
	return nil
}
