package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pqe/internal/core"
	"pqe/internal/count"
	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/gen"
	"pqe/internal/nfta"
	"pqe/internal/obs"
)

// benchRecord is one machine-readable benchmark row in
// BENCH_countnfta.json.
type benchRecord struct {
	Name        string      `json:"name"`
	Workers     int         `json:"workers"`
	Ops         int         `json:"ops"`
	NsPerOp     int64       `json:"ns_per_op"`
	AllocsPerOp uint64      `json:"allocs_per_op"`
	BytesPerOp  uint64      `json:"bytes_per_op"`
	Stats       *benchStats `json:"stats,omitempty"`
	Stages      *stageNs    `json:"stage_ns,omitempty"`
}

// stageNs is the per-op pipeline timing breakdown, aggregated from the
// obs stage spans of a short instrumented pass run *after* the timed
// loop (the ns_per_op measurement itself stays uninstrumented, so it is
// comparable across releases).
type stageNs struct {
	// Build covers decomposition, automaton construction and multiplier
	// weighting (pqe.decompose / pqe.build_* / pqe.weight_*), trim
	// excluded.
	Build int64 `json:"build"`
	// Trim covers the automaton trims (pqe.trim_ur / pqe.trim_path).
	Trim int64 `json:"trim"`
	// Sample covers the counting engines (count.trees / count.nfa).
	Sample int64 `json:"sample"`
}

// measureStages runs fn a few times under a fresh tracer and averages
// the span durations into the build/trim/sample breakdown. Trim spans
// nest inside build spans, so their time is subtracted from Build.
func measureStages(runs int, fn func(sc *obs.Scope, i int)) *stageNs {
	tr := obs.NewTracer()
	sc := obs.NewScope(tr, nil, nil)
	for i := 0; i < runs; i++ {
		fn(sc, i)
	}
	var out stageNs
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		switch s.Name() {
		case "pqe.decompose", "pqe.build_ur", "pqe.build_path_nfa", "pqe.weight_ur", "pqe.weight_path":
			out.Build += s.Duration().Nanoseconds()
		case "pqe.trim_ur", "pqe.trim_path":
			out.Trim += s.Duration().Nanoseconds()
		case "count.trees", "count.nfa":
			out.Sample += s.Duration().Nanoseconds()
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range tr.Roots() {
		walk(r)
	}
	out.Build -= out.Trim
	if out.Build < 0 {
		out.Build = 0
	}
	n := int64(runs)
	out.Build /= n
	out.Trim /= n
	out.Sample /= n
	return &out
}

// stageRuns is the instrumented-pass repetition count behind each
// stage_ns row.
const stageRuns = 5

// benchStats carries the estimator's own effort counters (per op).
type benchStats struct {
	TreeKeys     int   `json:"tree_keys"`
	ForestKeys   int   `json:"forest_keys"`
	UnionSamples int   `json:"union_samples"`
	Rejections   int   `json:"rejections"`
	WallNs       int64 `json:"wall_ns"`
}

type benchFile struct {
	Suite     string        `json:"suite"`
	GoVersion string        `json:"go_version"`
	NumCPU    int           `json:"num_cpu"`
	Epsilon   float64       `json:"epsilon"`
	Seed      int64         `json:"seed"`
	Results   []benchRecord `json:"results"`
}

// benchTime is the per-workload measurement budget: each workload is
// repeated until it has consumed this much wall time (at least once).
const benchTime = 300 * time.Millisecond

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

// measure runs fn until benchTime has elapsed and reports per-op time
// and allocation figures from runtime.MemStats deltas.
func measure(fn func(i int)) (ops int, nsPerOp int64, allocsPerOp, bytesPerOp uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < benchTime {
		fn(ops)
		ops++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return ops, elapsed.Nanoseconds() / int64(ops),
		(after.Mallocs - before.Mallocs) / uint64(ops),
		(after.TotalAlloc - before.TotalAlloc) / uint64(ops)
}

// runJSONBench runs the CountNFTA micro-benchmark suite at each worker
// count and writes BENCH_countnfta.json.
func runJSONBench(path string, eps float64, seed int64, workers int, stdout io.Writer) error {
	out := benchFile{
		Suite:     "countnfta",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Epsilon:   eps,
		Seed:      seed,
	}
	counts := []int{1}
	if workers > 1 {
		counts = append(counts, workers)
	}

	ur := []struct {
		name string
		q    *cq.Query
	}{
		{"UREstimate/path3", cq.PathQuery("R", 3)},
		{"UREstimate/star3", cq.StarQuery("S", 3)},
		{"UREstimate/triangle", cq.CycleQuery("C", 3)},
	}
	for _, w := range counts {
		for _, tc := range ur {
			h := gen.Instance(tc.q, gen.Config{FactsPerRelation: 3, DomainSize: 3, Seed: 2})
			d := h.DB()
			reg := obs.NewRegistry()
			ops, ns, allocs, bytes := measure(func(i int) {
				v, err := core.UREstimate(tc.q, d, core.Options{
					Epsilon: eps, Seed: seed + int64(i), MaxProcs: w, Obs: obs.NewScope(nil, reg, nil),
				})
				if err != nil || v.IsZero() {
					panic(fmt.Sprintf("%s: err=%v v=%v", tc.name, err, v))
				}
			})
			rec := record(tc.name, w, ops, ns, allocs, bytes, reg)
			rec.Stages = measureStages(stageRuns, func(sc *obs.Scope, i int) {
				_, _ = core.UREstimate(tc.q, d, core.Options{
					Epsilon: eps, Seed: seed + int64(i), MaxProcs: w, Obs: sc,
				})
			})
			out.Results = append(out.Results, rec)
		}

		a := heavyOverlap()
		reg := obs.NewRegistry()
		var v efloat.E
		ops, ns, allocs, bytes := measure(func(i int) {
			v = count.Trees(a, 24, count.Options{
				Epsilon: eps, Trials: 3, Seed: seed + int64(i), MaxProcs: w, Obs: obs.NewScope(nil, reg, nil),
			})
		})
		if v.IsZero() {
			return fmt.Errorf("CountTrees/heavyOverlap: estimate collapsed to zero")
		}
		rec := record("CountTrees/heavyOverlap/n=24", w, ops, ns, allocs, bytes, reg)
		rec.Stages = measureStages(stageRuns, func(sc *obs.Scope, i int) {
			count.Trees(a, 24, count.Options{
				Epsilon: eps, Trials: 3, Seed: seed + int64(i), MaxProcs: w, Obs: sc,
			})
		})
		out.Results = append(out.Results, rec)
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d results)\n", path, len(out.Results))
	return nil
}

// record averages the countnfta_* counters the timed ops accumulated in
// reg and packages one result row.
func record(name string, workers, ops int, ns int64, allocs, bytes uint64, reg *obs.Registry) benchRecord {
	c := perOp(reg, "countnfta_", ops)
	return benchRecord{
		Name:        name,
		Workers:     workers,
		Ops:         ops,
		NsPerOp:     ns,
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		Stats: &benchStats{
			TreeKeys:     int(c("tree_keys")),
			ForestKeys:   int(c("forest_keys")),
			UnionSamples: int(c("union_samples")),
			Rejections:   int(c("rejections")),
			WallNs:       c("wall_ns"),
		},
	}
}

// perOp reads one engine's <prefix><name>_total counters from reg,
// averaged over ops.
func perOp(reg *obs.Registry, prefix string, ops int) func(name string) int64 {
	return func(name string) int64 {
		return reg.Counter(prefix+name+"_total").Value() / int64(ops)
	}
}
