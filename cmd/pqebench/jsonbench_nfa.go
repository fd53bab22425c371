package main

import (
	"fmt"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/nfa"
	"pqe/internal/obs"
	"pqe/internal/reduction"
	"pqe/internal/union"
)

// nfaStats are the string engine's effort counters a countnfa row
// reports.
var nfaStats = []string{"word_keys", "union_keys", "union_samples", "rejections", "wall_ns"}

// benchCountNFA is the CountNFA (string engine) suite at each worker
// count. The workloads mirror the repo's BenchmarkPathEstimate /
// BenchmarkCountNFA so the rows are comparable with `go test -bench`
// output.
func benchCountNFA(cfg benchConfig) (*benchFile, error) {
	out := cfg.file("countnfa")
	for _, w := range cfg.workerCounts() {
		opts := func(sc *obs.Scope, i int) core.Options {
			return core.Options{Epsilon: cfg.eps, Seed: cfg.seed + int64(i), MaxProcs: w, Obs: sc}
		}
		// E2 workloads: Theorem 2 PathEstimate end to end (automaton
		// construction + counting) at growing query lengths.
		for _, n := range []int{2, 3, 4} {
			q := cq.PathQuery("R", n)
			d := gen.SparsePathInstance(q, 3, 2, gen.ProbHalf, 1).DB()
			name := fmt.Sprintf("PathEstimate/len=%d_facts=%d", n, d.Size())
			out.Results = append(out.Results, engineRow(name, w, "countnfa", nfaStats, func(sc *obs.Scope, i int) {
				v, err := core.PathEstimate(q, d, opts(sc, i))
				if err != nil || v.IsZero() {
					panic(fmt.Sprintf("%s: err=%v v=%v", name, err, v))
				}
			}))
		}

		// Footnote 2 of §5.1: the weighted string pipeline.
		q := cq.PathQuery("R", 3)
		h := gen.SparsePathInstance(q, 3, 2, gen.ProbRandomRational, 1)
		out.Results = append(out.Results, engineRow(fmt.Sprintf("PathPQEEstimate/len=3_facts=%d", h.Size()), w, "countnfa", nfaStats, func(sc *obs.Scope, i int) {
			v, err := core.PathPQEEstimate(q, h, opts(sc, i))
			if err != nil || v == 0 {
				panic(fmt.Sprintf("PathPQEEstimate: err=%v v=%v", err, v))
			}
		}))

		// Raw counting on a prebuilt automaton: isolates the engine from
		// the reduction.
		d := gen.SparsePathInstance(q, 4, 2, gen.ProbHalf, 1).DB()
		m, err := reduction.PathNFA(q, d)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, engineRow(fmt.Sprintf("CountNFA/path3_facts=%d", d.Size()), w, "countnfa", nfaStats, func(sc *obs.Scope, i int) {
			v := nfa.Count(m, d.Size(), union.Options{
				Epsilon: cfg.eps, Seed: cfg.seed + int64(i), MaxProcs: w, Obs: sc,
			})
			if v.IsZero() {
				panic("CountNFA: estimate collapsed to zero")
			}
		}))
	}
	return out, nil
}
