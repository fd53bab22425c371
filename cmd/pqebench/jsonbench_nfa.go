package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/nfa"
	"pqe/internal/obs"
	"pqe/internal/reduction"
)

// nfaBenchStats carries the string engine's effort counters (per op),
// the CountNFA analogue of benchStats.
type nfaBenchStats struct {
	WordKeys     int   `json:"word_keys"`
	UnionKeys    int   `json:"union_keys"`
	UnionSamples int   `json:"union_samples"`
	Rejections   int   `json:"rejections"`
	WallNs       int64 `json:"wall_ns"`
}

type nfaBenchRecord struct {
	Name        string         `json:"name"`
	Workers     int            `json:"workers"`
	Ops         int            `json:"ops"`
	NsPerOp     int64          `json:"ns_per_op"`
	AllocsPerOp uint64         `json:"allocs_per_op"`
	BytesPerOp  uint64         `json:"bytes_per_op"`
	Stats       *nfaBenchStats `json:"stats,omitempty"`
	Stages      *stageNs       `json:"stage_ns,omitempty"`
}

type nfaBenchFile struct {
	Suite     string           `json:"suite"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Epsilon   float64          `json:"epsilon"`
	Seed      int64            `json:"seed"`
	Results   []nfaBenchRecord `json:"results"`
}

// runJSONBenchNFA runs the CountNFA (string engine) micro-benchmark
// suite at each worker count and writes BENCH_countnfa.json. The
// workloads mirror the repo's BenchmarkPathEstimate / BenchmarkCountNFA
// so the JSON rows are comparable with `go test -bench` output.
func runJSONBenchNFA(path string, eps float64, seed int64, workers int, stdout io.Writer) error {
	out := nfaBenchFile{
		Suite:     "countnfa",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Epsilon:   eps,
		Seed:      seed,
	}
	counts := []int{1}
	if workers > 1 {
		counts = append(counts, workers)
	}

	for _, w := range counts {
		// E2 workloads: Theorem 2 PathEstimate end to end (automaton
		// construction + counting) at growing query lengths.
		for _, n := range []int{2, 3, 4} {
			q := cq.PathQuery("R", n)
			h := gen.SparsePathInstance(q, 3, 2, gen.ProbHalf, 1)
			d := h.DB()
			reg := obs.NewRegistry()
			ops, ns, allocs, bytes := measure(func(i int) {
				v, err := core.PathEstimate(q, d, core.Options{
					Epsilon: eps, Seed: seed + int64(i), MaxProcs: w, Obs: obs.NewScope(nil, reg, nil),
				})
				if err != nil || v.IsZero() {
					panic(fmt.Sprintf("PathEstimate/len=%d: err=%v v=%v", n, err, v))
				}
			})
			rec := nfaRecord(
				fmt.Sprintf("PathEstimate/len=%d_facts=%d", n, d.Size()), w, ops, ns, allocs, bytes, reg)
			rec.Stages = measureStages(stageRuns, func(sc *obs.Scope, i int) {
				_, _ = core.PathEstimate(q, d, core.Options{
					Epsilon: eps, Seed: seed + int64(i), MaxProcs: w, Obs: sc,
				})
			})
			out.Results = append(out.Results, rec)
		}

		// Footnote 2 of §5.1: the weighted string pipeline.
		{
			q := cq.PathQuery("R", 3)
			h := gen.SparsePathInstance(q, 3, 2, gen.ProbRandomRational, 1)
			reg := obs.NewRegistry()
			ops, ns, allocs, bytes := measure(func(i int) {
				v, err := core.PathPQEEstimate(q, h, core.Options{
					Epsilon: eps, Seed: seed + int64(i), MaxProcs: w, Obs: obs.NewScope(nil, reg, nil),
				})
				if err != nil || v == 0 {
					panic(fmt.Sprintf("PathPQEEstimate: err=%v v=%v", err, v))
				}
			})
			rec := nfaRecord(
				fmt.Sprintf("PathPQEEstimate/len=3_facts=%d", h.Size()), w, ops, ns, allocs, bytes, reg)
			rec.Stages = measureStages(stageRuns, func(sc *obs.Scope, i int) {
				_, _ = core.PathPQEEstimate(q, h, core.Options{
					Epsilon: eps, Seed: seed + int64(i), MaxProcs: w, Obs: sc,
				})
			})
			out.Results = append(out.Results, rec)
		}

		// Raw counting on a prebuilt automaton: isolates the engine from
		// the reduction.
		{
			q := cq.PathQuery("R", 3)
			h := gen.SparsePathInstance(q, 4, 2, gen.ProbHalf, 1)
			d := h.DB()
			m, err := reduction.PathNFA(q, d)
			if err != nil {
				return err
			}
			reg := obs.NewRegistry()
			ops, ns, allocs, bytes := measure(func(i int) {
				v := nfa.Count(m, d.Size(), nfa.CountOptions{
					Epsilon: eps, Seed: seed + int64(i), MaxProcs: w, Obs: obs.NewScope(nil, reg, nil),
				})
				if v.IsZero() {
					panic("CountNFA: estimate collapsed to zero")
				}
			})
			rec := nfaRecord(
				fmt.Sprintf("CountNFA/path3_facts=%d", d.Size()), w, ops, ns, allocs, bytes, reg)
			rec.Stages = measureStages(stageRuns, func(sc *obs.Scope, i int) {
				nfa.Count(m, d.Size(), nfa.CountOptions{
					Epsilon: eps, Seed: seed + int64(i), MaxProcs: w, Obs: sc,
				})
			})
			out.Results = append(out.Results, rec)
		}
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

// nfaRecord is record for the string engine's countnfa_* counters.
func nfaRecord(name string, workers, ops int, ns int64, allocs, bytes uint64, reg *obs.Registry) nfaBenchRecord {
	c := perOp(reg, "countnfa_", ops)
	return nfaBenchRecord{
		Name:        name,
		Workers:     workers,
		Ops:         ops,
		NsPerOp:     ns,
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		Stats: &nfaBenchStats{
			WordKeys:     int(c("word_keys")),
			UnionKeys:    int(c("union_keys")),
			UnionSamples: int(c("union_samples")),
			Rejections:   int(c("rejections")),
			WallNs:       c("wall_ns"),
		},
	}
}
