package nfa

import (
	"sort"

	"pqe/internal/efloat"
	"pqe/internal/sched"
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
// trial runs.
func NewCounter(m *NFA, opts CountOptions) *Counter {
	opts = opts.withDefaults()
	pl, _ := planFor(m)
	c := &Counter{m: m, pl: pl, procs: opts.procs, call: newCallState(pl, opts.procs)}
	for t := 0; t < opts.Trials; t++ {
		c.trials = append(c.trials, pl.getRun(opts, opts.Rng.Int63()))
	}
	return c
}

// Count approximates |L_n(M)| (median across the session's trials).
func (c *Counter) Count(n int) efloat.E {
	results := make([]efloat.E, len(c.trials))
	sched.Run(sched.Config{Procs: c.procs, Trials: len(c.trials), Labels: schedLabels}, func(w *sched.Worker, t int) {
		r := c.trials[t]
		r.w, r.call = w, c.call
		r.ensurePfx(n)
		results[t] = r.topLevel(n)
	})
	sort.Slice(results, func(i, j int) bool { return results[i].Less(results[j]) })
	return results[len(results)/2]
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

// RecordStats adds the session's accumulated effort counters to s.
func (c *Counter) RecordStats(s *Stats) {
	for _, r := range c.trials {
		s.record(r.snapshot())
		if r.top != nil {
			s.Rejections += r.top.rejections
		}
	}
	rej, _ := c.call.totals()
	s.Rejections += rej
}
