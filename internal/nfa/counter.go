package nfa

import (
	"pqe/internal/efloat"
	"pqe/internal/sched"
	"pqe/internal/trial"
)

// Counter is a reusable counting session over one automaton: repeated
// Count calls share the per-trial memo tables, so sweeping |L_n(M)|
// over many lengths costs little more than the largest length alone
// (the tables are indexed by (state, length) and smaller lengths are
// subproblems of larger ones). The session shares the automaton's
// cached plan with every other session and one-shot call, and keeps its
// runs and worker samplers for its whole lifetime (they are never
// returned to the plan's pool — the sweep cache is the point). The
// automaton must not be mutated while a Counter holds it.
type Counter struct {
	m      *NFA
	pl     *wordPlan
	procs  int
	call   *callState
	trials []*wordRun
}

// NewCounter prepares a counting session with opts.Trials independent
// trial runs, seeded as a Count call with the same options seeds them.
func NewCounter(m *NFA, opts CountOptions) *Counter {
	opts = opts.withDefaults()
	pl, _ := planFor(m)
	c := &Counter{m: m, pl: pl, procs: opts.MaxProcs, call: newCallState(pl, opts.MaxProcs)}
	for _, seed := range opts.schedule().Seeds() {
		c.trials = append(c.trials, pl.getRun(opts, seed))
	}
	return c
}

// Count approximates |L_n(M)|: the trial driver's median across the
// session's trials.
func (c *Counter) Count(n int) efloat.E {
	res, _ := trial.Run(nil, trial.Schedule{Trials: len(c.trials)}, func(lo, hi int) ([]efloat.E, error) {
		vals := make([]efloat.E, hi-lo)
		sched.Run(sched.Config{Procs: c.procs, Trials: hi - lo, Labels: schedLabels}, func(w *sched.Worker, i int) {
			r := c.trials[lo+i]
			r.w, r.call = w, c.call
			r.ensurePfx(n)
			vals[i] = r.topLevel(n)
		})
		return vals, nil
	})
	return res.Value
}

// Sample draws a near-uniform word of length n using the first trial's
// tables, or nil if the language at that length is (estimated) empty.
// Successive samples advance the trial's persistent sampling stream.
func (c *Counter) Sample(n int) []int {
	r := c.trials[0]
	var word []int
	sched.Run(sched.Config{Procs: c.procs, Trials: 1, Labels: schedLabels}, func(w *sched.Worker, _ int) {
		r.w, r.call = w, c.call
		r.ensurePfx(n)
		if r.topLevel(n).IsZero() {
			return
		}
		word = r.topSampler().sampleTop(n)
	})
	return word
}
