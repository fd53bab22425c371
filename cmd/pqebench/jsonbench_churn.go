package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/hypertree"
	"pqe/internal/pdb"
	"pqe/internal/reduction"
)

// The churn suite measures fact-level update workloads: per op, delete
// and re-insert n facts (|D| stays constant) and rebuild the automaton.
// Each workload runs twice — "incremental" keeps a builder session
// across ops so only the parts over mutated relations re-derive, and
// "rebuild" constructs from scratch — making the incremental-vs-full
// construction gap a committed, regression-gated number.
//
// The construction rows churn the facts of a single relation — the
// middle atom's, the worst single-relation placement for the memoized
// rebuild since it also dirties the parent vertex's child combinations.
// Localized updates are the workload incremental maintenance targets: a
// batch that touches every relation dirties every decomposition vertex
// and degenerates to a full re-enumeration by design, so measuring it
// would only show the two rows converging. The ChurnEstimate rows run
// the same single-relation delta through an estimator session
// (ApplyDelta + re-estimate) against one-shot evaluation.

// churner replays a deterministic delete+insert sequence over one
// relation: each step removes the rotating victim fact and inserts a
// variant with a "~" toggled on its last argument. Starting two
// churners from clones of one database yields identical mutation
// sequences, so incremental and rebuild rows see the same instance
// evolution.
type churner struct {
	d   *pdb.Database
	rel string
	ctr int
}

// next picks the victim and its toggled replacement without mutating
// the database (for delta construction where ApplyDelta mutates).
func (c *churner) next() (del, ins pdb.Fact) {
	facts := c.d.FactsOf(c.rel)
	del = facts[c.ctr%len(facts)]
	c.ctr++
	args := append([]string(nil), del.Args...)
	last := len(args) - 1
	if strings.HasSuffix(args[last], "~") {
		args[last] = strings.TrimSuffix(args[last], "~")
	} else {
		args[last] += "~"
	}
	ins = pdb.NewFact(del.Relation, args...)
	return del, ins
}

// step mutates one fact of the churned relation and reports the
// delete+insert pair.
func (c *churner) step() (del, ins pdb.Fact) {
	del, ins = c.next()
	c.d.Remove(del)
	c.d.Add(ins)
	return del, ins
}

// churnNs derives the update batch sizes: 1, 10 and 10% of |D|.
func churnNs(size int) []int {
	ns := []int{1, 10}
	if p := size / 10; p > 10 {
		ns = append(ns, p)
	}
	return ns
}

// runJSONBenchChurn runs the churn suite and writes BENCH_churn.json.
// The construction rows are single-threaded by nature (the builders
// replay a deterministic assembly); the ChurnEstimate rows run the
// counting engines at 1 worker and, when workers > 1, again at that
// count.
func runJSONBenchChurn(path string, eps float64, seed int64, workers int, stdout io.Writer) error {
	out := benchFile{
		Suite:     "churn",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Epsilon:   eps,
		Seed:      seed,
	}

	q := cq.PathQuery("R", 6)
	base := gen.SparsePathInstance(q, 26, 2, gen.ProbHalf, seed).DB()
	size := base.Size()
	churnRel := q.Atoms[q.Len()/2].Relation

	for _, n := range churnNs(size) {
		// Tree pipeline construction: Proposition 1 UR automaton.
		{
			c := &churner{d: base.Clone(), rel: churnRel}
			dec, err := hypertree.Decompose(q)
			if err != nil {
				return err
			}
			b, err := reduction.NewURBuilder(q, c.d, dec)
			if err != nil {
				return err
			}
			if _, err := b.Build(nil); err != nil {
				return err
			}
			ops, ns, allocs, bytes := measure(func(i int) {
				for k := 0; k < n; k++ {
					del, ins := c.step()
					b.NoteMutation(del.Relation, true)
					b.NoteMutation(ins.Relation, false)
				}
				if _, err := b.Build(nil); err != nil {
					panic(err)
				}
			})
			out.Results = append(out.Results, benchRecord{
				Name:    fmt.Sprintf("ChurnUR/path6_facts=%d/n=%d/incremental", size, n),
				Workers: 1, Ops: ops, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
			})

			c = &churner{d: base.Clone(), rel: churnRel}
			ops, ns, allocs, bytes = measure(func(i int) {
				for k := 0; k < n; k++ {
					c.step()
				}
				dec, err := hypertree.Decompose(q)
				if err != nil {
					panic(err)
				}
				if _, err := reduction.BuildUR(q, c.d, dec); err != nil {
					panic(err)
				}
			})
			out.Results = append(out.Results, benchRecord{
				Name:    fmt.Sprintf("ChurnUR/path6_facts=%d/n=%d/rebuild", size, n),
				Workers: 1, Ops: ops, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
			})
		}

		// String pipeline construction: Section 3 path automaton.
		{
			c := &churner{d: base.Clone(), rel: churnRel}
			b, err := reduction.NewPathBuilder(q, c.d)
			if err != nil {
				return err
			}
			if _, err := b.Build(); err != nil {
				return err
			}
			ops, ns, allocs, bytes := measure(func(i int) {
				for k := 0; k < n; k++ {
					del, ins := c.step()
					b.NoteMutation(del.Relation, true)
					b.NoteMutation(ins.Relation, false)
				}
				if _, err := b.Build(); err != nil {
					panic(err)
				}
			})
			out.Results = append(out.Results, benchRecord{
				Name:    fmt.Sprintf("ChurnPath/path6_facts=%d/n=%d/incremental", size, n),
				Workers: 1, Ops: ops, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
			})

			c = &churner{d: base.Clone(), rel: churnRel}
			ops, ns, allocs, bytes = measure(func(i int) {
				for k := 0; k < n; k++ {
					c.step()
				}
				if _, err := reduction.PathNFA(q, c.d); err != nil {
					panic(err)
				}
			})
			out.Results = append(out.Results, benchRecord{
				Name:    fmt.Sprintf("ChurnPath/path6_facts=%d/n=%d/rebuild", size, n),
				Workers: 1, Ops: ops, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
			})
		}
	}

	// End-to-end delta + re-estimate on a smaller weighted instance:
	// an ApplyDelta session against a one-shot evaluation per update.
	// Light counting knobs keep the sampling share small so the rows
	// reflect the construction work a dynamic database re-pays.
	estQ := cq.PathQuery("R", 3)
	estRel := estQ.Atoms[estQ.Len()/2].Relation
	hBase := gen.SparsePathInstance(estQ, 8, 2, gen.ProbHalf, seed)
	workerCounts := []int{1}
	if workers > 1 {
		workerCounts = append(workerCounts, workers)
	}
	for _, w := range workerCounts {
		estOpts := core.Options{Epsilon: eps, Trials: 1, Samples: 4, Seed: seed, MaxProcs: w}
		for _, n := range []int{1, 4} {
			estSize := hBase.Size()
			{
				h := hBase.Clone()
				c := &churner{d: h.DB(), rel: estRel}
				est := core.NewEstimator(estQ, h, estOpts)
				if _, err := est.UREstimate(estOpts); err != nil {
					return err
				}
				ops, ns, allocs, bytes := measure(func(i int) {
					delta := make(pdb.Delta, 0, 2*n)
					for k := 0; k < n; k++ {
						del, ins := c.next()
						delta = append(delta, pdb.Delete(del), pdb.Insert(ins, pdb.ProbOne))
					}
					if _, err := est.ApplyDelta(delta); err != nil {
						panic(err)
					}
					if _, err := est.UREstimate(estOpts); err != nil {
						panic(err)
					}
				})
				out.Results = append(out.Results, benchRecord{
					Name:    fmt.Sprintf("ChurnEstimate/path3_facts=%d/n=%d/session", estSize, n),
					Workers: w, Ops: ops, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
				})
			}
			{
				h := hBase.Clone()
				c := &churner{d: h.DB(), rel: estRel}
				ops, ns, allocs, bytes := measure(func(i int) {
					for k := 0; k < n; k++ {
						c.step()
					}
					if _, err := core.UREstimate(estQ, h.DB(), estOpts); err != nil {
						panic(err)
					}
				})
				out.Results = append(out.Results, benchRecord{
					Name:    fmt.Sprintf("ChurnEstimate/path3_facts=%d/n=%d/fresh", estSize, n),
					Workers: w, Ops: ops, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
				})
			}
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
