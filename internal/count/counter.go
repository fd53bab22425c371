package count

import (
	"pqe/internal/efloat"
	"pqe/internal/nfta"
	"pqe/internal/sched"
	"pqe/internal/trial"
)

// Counter is a reusable counting session over one automaton: repeated
// Count calls share the per-trial memo tables, so sweeping |L_n(T)|
// over many sizes costs little more than the largest size alone (the
// tables are indexed by (state, size) and smaller sizes are subproblems
// of larger ones). The session shares the automaton's cached plan with
// every other session and one-shot call, and keeps its runs and worker
// samplers for its whole lifetime (they are never returned to the
// plan's pool — the sweep cache is the point).
type Counter struct {
	a      *nfta.NFTA
	pl     *plan
	procs  int
	call   *callState
	trials []*run
}

// NewCounter prepares a counting session with opts.Trials independent
// trial runs, seeded as a Trees call with the same options seeds them.
func NewCounter(a *nfta.NFTA, opts Options) *Counter {
	checkLambda(a)
	opts = opts.withDefaults()
	pl, _ := planFor(a)
	c := &Counter{a: a, pl: pl, procs: opts.MaxProcs, call: newCallState(pl, opts.MaxProcs)}
	for _, seed := range opts.schedule().Seeds() {
		c.trials = append(c.trials, pl.getRun(opts, seed))
	}
	return c
}

// Count approximates |L_n(T)|: the trial driver's median across the
// session's trials.
func (c *Counter) Count(n int) efloat.E {
	res, _ := trial.Run(nil, trial.Schedule{Trials: len(c.trials)}, func(lo, hi int) ([]efloat.E, error) {
		vals := make([]efloat.E, hi-lo)
		sched.Run(sched.Config{Procs: c.procs, Trials: hi - lo, Labels: schedLabels}, func(w *sched.Worker, i int) {
			r := c.trials[lo+i]
			r.w, r.call = w, c.call
			r.ensurePfx(n)
			vals[i] = r.treeEst(c.a.Initial(), n)
		})
		return vals, nil
	})
	return res.Value
}

// Sample draws a near-uniform tree of size n using the first trial's
// tables, or nil if the language at that size is (estimated) empty.
// Successive samples advance the trial's persistent sampling stream.
func (c *Counter) Sample(n int) *nfta.Tree {
	r := c.trials[0]
	var tree *nfta.Tree
	sched.Run(sched.Config{Procs: c.procs, Trials: 1, Labels: schedLabels}, func(w *sched.Worker, _ int) {
		r.w, r.call = w, c.call
		r.ensurePfx(n)
		if r.treeEst(c.a.Initial(), n).IsZero() {
			return
		}
		tree = r.topSampler().sampleTree(c.a.Initial(), n)
	})
	return tree
}
