package main

import (
	"fmt"
	"strings"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/hypertree"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/reduction"
)

// The churn suite measures fact-level update workloads: per op, delete
// and re-insert n facts (|D| stays constant) and rebuild the automaton.
// Each workload runs twice — "incremental" keeps a builder session
// across ops so only the parts over mutated relations re-derive, and
// "rebuild" constructs from scratch — making the incremental-vs-full
// construction gap a committed, regression-gated number. The two sides
// of a pair are timed in alternating slices, so background load falls
// on both alike.
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

// noteSteps takes n steps, reporting each deleted and inserted fact's
// relation to note when it is non-nil.
func (c *churner) noteSteps(n int, note func(rel string, deleted bool)) {
	for k := 0; k < n; k++ {
		del, ins := c.step()
		if note != nil {
			note(del.Relation, true)
			note(ins.Relation, false)
		}
	}
}

// churnNs derives the update batch sizes: 1, 10 and 10% of |D|.
func churnNs(size int) []int {
	ns := []int{1, 10}
	if p := size / 10; p > 10 {
		ns = append(ns, p)
	}
	return ns
}

// churnPair measures the two sides of a churn workload — the
// incremental (or session) side inc and the rebuild (or fresh) side
// full — in alternating slices, and names the rows name + "/" + each
// side's label.
func churnPair(out *benchFile, name string, workers int, incLabel string, inc func(), fullLabel string, full func()) {
	rows := measure(func(*obs.Scope, int) { inc() }, func(*obs.Scope, int) { full() })
	rows[0].Name, rows[1].Name = name+"/"+incLabel, name+"/"+fullLabel
	rows[0].Workers, rows[1].Workers = workers, workers
	out.Results = append(out.Results, rows...)
}

// benchChurn is the churn suite. The construction rows are
// single-threaded by nature (the builders replay a deterministic
// assembly); the ChurnEstimate rows run the counting engines at each
// worker count.
func benchChurn(cfg benchConfig) (*benchFile, error) {
	out := cfg.file("churn")
	q := cq.PathQuery("R", 6)
	base := gen.SparsePathInstance(q, 26, 2, gen.ProbHalf, cfg.seed).DB()
	size := base.Size()
	churnRel := q.Atoms[q.Len()/2].Relation

	for _, n := range churnNs(size) {
		// Tree pipeline construction: Proposition 1 UR automaton.
		dec, err := hypertree.Decompose(q)
		if err != nil {
			return nil, err
		}
		urInc := &churner{d: base.Clone(), rel: churnRel}
		ub, err := reduction.NewURBuilder(q, urInc.d, dec)
		if err != nil {
			return nil, err
		}
		if _, err := ub.Build(nil); err != nil {
			return nil, err
		}
		urFull := &churner{d: base.Clone(), rel: churnRel}
		churnPair(out, fmt.Sprintf("ChurnUR/path6_facts=%d/n=%d", size, n), 1,
			"incremental", func() {
				urInc.noteSteps(n, ub.NoteMutation)
				must(ub.Build(nil))
			},
			"rebuild", func() {
				urFull.noteSteps(n, nil)
				dec, err := hypertree.Decompose(q)
				if err != nil {
					panic(err)
				}
				must(reduction.BuildUR(q, urFull.d, dec))
			})

		// String pipeline construction: Section 3 path automaton.
		pathInc := &churner{d: base.Clone(), rel: churnRel}
		pb, err := reduction.NewPathBuilder(q, pathInc.d)
		if err != nil {
			return nil, err
		}
		if _, err := pb.Build(); err != nil {
			return nil, err
		}
		pathFull := &churner{d: base.Clone(), rel: churnRel}
		churnPair(out, fmt.Sprintf("ChurnPath/path6_facts=%d/n=%d", size, n), 1,
			"incremental", func() {
				pathInc.noteSteps(n, pb.NoteMutation)
				must(pb.Build())
			},
			"rebuild", func() {
				pathFull.noteSteps(n, nil)
				must(reduction.PathNFA(q, pathFull.d))
			})
	}

	// End-to-end delta + re-estimate on a smaller weighted instance:
	// an ApplyDelta session against a one-shot evaluation per update.
	// Light counting knobs keep the sampling share small so the rows
	// reflect the construction work a dynamic database re-pays.
	estQ := cq.PathQuery("R", 3)
	estRel := estQ.Atoms[estQ.Len()/2].Relation
	hBase := gen.SparsePathInstance(estQ, 8, 2, gen.ProbHalf, cfg.seed)
	for _, w := range cfg.workerCounts() {
		estOpts := core.Options{Epsilon: cfg.eps, Trials: 1, Samples: 4, Seed: cfg.seed, MaxProcs: w}
		for _, n := range []int{1, 4} {
			h := hBase.Clone()
			c := &churner{d: h.DB(), rel: estRel}
			est := core.NewEstimator(estQ, h, estOpts)
			if _, err := est.UREstimate(estOpts); err != nil {
				return nil, err
			}
			hFull := hBase.Clone()
			cFull := &churner{d: hFull.DB(), rel: estRel}
			churnPair(out, fmt.Sprintf("ChurnEstimate/path3_facts=%d/n=%d", hBase.Size(), n), w,
				"session", func() {
					delta := make(pdb.Delta, 0, 2*n)
					for k := 0; k < n; k++ {
						del, ins := c.next()
						delta = append(delta, pdb.Delete(del), pdb.Insert(ins, pdb.ProbOne))
					}
					must(est.ApplyDelta(delta))
					must(est.UREstimate(estOpts))
				},
				"fresh", func() {
					cFull.noteSteps(n, nil)
					must(core.UREstimate(estQ, hFull.DB(), estOpts))
				})
		}
	}
	return out, nil
}

// must panics on a benchmark op's error.
func must[T any](_ T, err error) {
	if err != nil {
		panic(err)
	}
}
