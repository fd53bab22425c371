package core

import (
	"context"
	"fmt"

	"pqe/internal/count"
	"pqe/internal/efloat"
	"pqe/internal/nfa"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/trial"
)

// Shard modes name the four FPRAS counting phases; Estimator.phase is
// the mode table that resolves each to the automaton it counts and the
// rule that turns the count into the answer. A coordinator ships the
// mode, so a worker builds the same automaton and runs the matching
// engine range function; everything else about the trial schedule
// travels in the ShardSpec.
const (
	ShardModeUR      = "ur"      // count.Trees over the Proposition 1 automaton
	ShardModePQE     = "pqe"     // count.Trees over the Theorem 1 weighted automaton
	ShardModePath    = "path"    // nfa.Count over the Section 3 string automaton
	ShardModePathPQE = "pathpqe" // nfa.Count over the weighted string automaton
)

// ShardSpec is the self-contained description of one distributed
// counting call: the instance (as public text formats, so any process
// can rebuild the session), the counting mode, and the fully resolved
// trial schedule. Every field is resolved by the coordinator before
// dispatch — workers apply no defaults of their own — so coordinator
// and workers agree on (epsilon, trials, samples, seed) byte for byte.
//
// Determinism contract: a worker executing trials [lo, hi) of a spec
// derives trial t's PRNG from (Seed, site, index) exactly as the local
// engines do, so the per-trial estimates are independent of how the
// range [0, Trials) is partitioned and of which worker runs which part.
//
// The JSON form is what a coordinator ships to a worker; Anytime and
// Delta stay with the coordinator.
type ShardSpec struct {
	// Query and DB are the instance in the public text formats
	// (cq.Parse / pdb.ParseString). UR-only sessions wrap their plain
	// database with all-one probabilities.
	Query string `json:"query"`
	DB    string `json:"db"`
	// MaxWidth is the session's construction knob (0 = |Q|).
	MaxWidth int `json:"max_width"`
	// Mode selects the counting phase (ShardMode*).
	Mode string `json:"mode"`
	// N is the counted object size (tree size or word length); States
	// the automaton's state count. Workers rebuild the reduction from
	// (Query, DB, MaxWidth) and cross-check both against the spec, so a
	// construction divergence between processes fails loudly instead of
	// silently merging estimates of different automata.
	N      int `json:"n"`
	States int `json:"states"`
	// Epsilon, Trials, Samples and Seed are the resolved trial
	// schedule.
	Epsilon float64 `json:"epsilon"`
	Trials  int     `json:"trials"`
	Samples int     `json:"samples"`
	Seed    int64   `json:"seed"`
	// Anytime runs the trial driver's sequential-stopping schedule on
	// the coordinator, with failure target Delta (≤ 0 = default).
	// Workers never stop early themselves: batch boundaries live with
	// the coordinator's driver, which is what keeps them deterministic.
	Anytime bool    `json:"-"`
	Delta   float64 `json:"-"`
}

// Schedule is the spec's trial schedule, as the trial driver runs it.
func (s ShardSpec) Schedule() trial.Schedule {
	return trial.Schedule{
		Epsilon: s.Epsilon,
		Trials:  s.Trials,
		Samples: s.Samples,
		Seed:    s.Seed,
		Anytime: s.Anytime,
		Delta:   s.Delta,
	}
}

// Engine returns the obs engine label of the spec's counting phase, so
// coordinator-side convergence records match what a local run of the
// same phase would emit.
func (s ShardSpec) Engine() string {
	if s.Mode == ShardModePath || s.Mode == ShardModePathPQE {
		return "countnfa"
	}
	return "countnfta"
}

// Sharder distributes one counting call across worker processes. The
// implementation (internal/shard.Pool) owns range partitioning and
// worker failover, and drives the spec's schedule through the trial
// driver, so its Result — median, executed and saved trials — is the
// local engine's; core owns building the spec and the post-counting
// scaling, which stays on the coordinator.
type Sharder interface {
	CountSharded(sc *obs.Scope, spec ShardSpec) (trial.Result, error)
}

// instanceText renders the session's instance in the public text
// format a worker can reload. UR-only sessions (no probabilities) wrap
// the plain database with all-one probabilities; the UR pipelines never
// read them.
func (e *Estimator) instanceText() string {
	if e.h != nil {
		return pdb.FormatString(e.h)
	}
	return pdb.FormatString(pdb.NewProbabilistic(e.d, pdb.ProbOne))
}

// shardSpec assembles the dispatchable description of one counting
// phase, resolving the trial schedule with the trial driver's defaults,
// as the local engine would.
func (e *Estimator) shardSpec(opts Options, ph phase) ShardSpec {
	s := trial.Schedule{Epsilon: opts.Epsilon, Trials: opts.Trials, Samples: opts.Samples, Seed: opts.Seed}.Resolve()
	return ShardSpec{
		Query:    e.q.String(),
		DB:       e.instanceText(),
		MaxWidth: e.opts.MaxWidth,
		Mode:     ph.mode,
		N:        ph.n,
		States:   ph.states(),
		Epsilon:  s.Epsilon,
		Trials:   s.Trials,
		Samples:  s.Samples,
		Seed:     s.Seed,
		Anytime:  opts.anytime(),
		Delta:    opts.Delta,
	}
}

// CountTrials is the worker half of trial sharding: execute trials
// [lo, hi) of the spec's schedule on this process's session and return
// their estimates in trial order. The session is rebuilt from the
// spec's text instance (the shard worker caches Estimators per spec),
// and the reduction geometry is cross-checked against the spec before
// any sampling runs. Cancelling ctx stops the range's queued trials
// and returns ctx's error.
func (e *Estimator) CountTrials(ctx context.Context, spec ShardSpec, lo, hi, maxProcs int, sc *obs.Scope) ([]efloat.E, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	// Resolve the phase's automaton in the build critical section; the
	// range itself runs outside it, concurrently with other ranges.
	var ph phase
	err := e.build(Options{Obs: sc}, func() (err error) {
		ph, err = e.phase(spec.Mode)
		return err
	})
	if err != nil {
		return nil, err
	}
	if states := ph.states(); ph.n != spec.N || states != spec.States {
		return nil, fmt.Errorf("core: shard geometry mismatch for mode %s: built (n=%d, states=%d), spec (n=%d, states=%d)",
			spec.Mode, ph.n, states, spec.N, spec.States)
	}
	// A fixed schedule with the spec's resolved values: ranges never
	// stop early, the coordinator's driver owns the batches.
	opts := Options{Epsilon: spec.Epsilon, Trials: spec.Trials, Samples: spec.Samples, Seed: spec.Seed, MaxProcs: maxProcs, Ctx: ctx}
	if ph.tree != nil {
		return count.TreesRange(ph.tree, spec.N, opts.countOptions(sc), lo, hi)
	}
	return nfa.CountRange(ph.word, spec.N, opts.nfaOptions(sc), lo, hi)
}
