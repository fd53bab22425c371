package core

import (
	"fmt"

	"pqe/internal/count"
	"pqe/internal/efloat"
	"pqe/internal/nfa"
	"pqe/internal/nfta"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

// Shard modes name the four FPRAS counting phases a coordinator can
// distribute. The mode tells a worker which reduction to build and
// which engine range function to run; everything else about the trial
// schedule travels in the ShardSpec.
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
type ShardSpec struct {
	// Query and DB are the instance in the public text formats
	// (cq.Parse / pdb.ParseString). UR-only sessions wrap their plain
	// database with all-one probabilities.
	Query string
	DB    string
	// MaxWidth is the session's construction knob (0 = |Q|).
	MaxWidth int
	// Mode selects the counting phase (ShardMode*).
	Mode string
	// N is the counted object size (tree size or word length); States
	// the automaton's state count. Workers rebuild the reduction from
	// (Query, DB, MaxWidth) and cross-check both against the spec, so a
	// construction divergence between processes fails loudly instead of
	// silently merging estimates of different automata.
	N      int
	States int
	// Epsilon, Trials, Samples and Seed are the resolved trial
	// schedule.
	Epsilon float64
	Trials  int
	Samples int
	Seed    int64
	// Anytime enables the seqstop sequential-stopping loop on the
	// coordinator, with failure target Delta (≤ 0 = default). Workers
	// never stop early themselves: batch boundaries live with the
	// coordinator, which is what keeps them deterministic.
	Anytime bool
	Delta   float64
}

// Engine returns the obs engine label of the spec's counting phase, so
// coordinator-side convergence records match what a local run of the
// same phase would emit.
func (s ShardSpec) Engine() string {
	switch s.Mode {
	case ShardModePath, ShardModePathPQE:
		return "countnfa"
	}
	return "countnfta"
}

// ShardResult is a merged distributed counting call.
type ShardResult struct {
	// Value is the upper median of the executed trials' estimates —
	// bit-identical to what the local engine would return.
	Value efloat.E
	// Executed is how many trials ran (< Trials only when the anytime
	// certificate stopped the schedule early).
	Executed int
}

// Sharder distributes one counting call across worker processes. The
// implementation (internal/shard.Pool) owns range partitioning, worker
// failover and the median merge; core owns building the spec and the
// post-counting scaling, which stays on the coordinator.
type Sharder interface {
	CountSharded(sc *obs.Scope, spec ShardSpec) (ShardResult, error)
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
// phase, resolving the trial schedule exactly as the local engine
// would.
func (e *Estimator) shardSpec(opts Options, mode string, n, states int) ShardSpec {
	spec := ShardSpec{
		Query:    e.q.String(),
		DB:       e.instanceText(),
		MaxWidth: e.opts.MaxWidth,
		Mode:     mode,
		N:        n,
		States:   states,
		Seed:     opts.seed(),
		Anytime:  opts.anytime(),
		Delta:    opts.Delta,
	}
	switch mode {
	case ShardModePath, ShardModePathPQE:
		spec.Epsilon, spec.Trials, spec.Samples = opts.nfaOptions(nil).ResolveSchedule()
	default:
		spec.Epsilon, spec.Trials, spec.Samples = opts.countOptions(nil).ResolveSchedule()
	}
	return spec
}

// shardCount routes one counting phase through the call's Sharder and
// returns the merged estimate.
func (e *Estimator) shardCount(sc *obs.Scope, opts Options, mode string, n, states int) (efloat.E, error) {
	res, err := opts.Shard.CountSharded(sc, e.shardSpec(opts, mode, n, states))
	if err != nil {
		return efloat.Zero, fmt.Errorf("core: sharded %s count: %w", mode, err)
	}
	return res.Value, nil
}

// CountTrials is the worker half of the shard protocol: execute trials
// [lo, hi) of the spec's schedule on this process's session and return
// their estimates in trial order. The session is rebuilt from the
// spec's text instance (the shard worker caches Estimators per spec),
// and the reduction geometry is cross-checked against the spec before
// any sampling runs.
func (e *Estimator) CountTrials(spec ShardSpec, lo, hi, maxProcs int, sc *obs.Scope) ([]efloat.E, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	// Resolve the phase's automaton in the build critical section; the
	// range itself runs outside it, concurrently with other ranges.
	var tree *nfta.NFTA
	var word *nfa.NFA
	var n, states int
	err := e.build(Options{Obs: sc}, func() error {
		switch spec.Mode {
		case ShardModeUR:
			red, err := e.urReduction()
			if err != nil {
				return err
			}
			tree, n = red.Auto, red.TreeSize
		case ShardModePQE:
			weighted, err := e.pqeReduction()
			if err != nil {
				return err
			}
			tree, n = weighted.Auto, weighted.TreeSize
		case ShardModePath:
			m, err := e.pathAutomaton()
			if err != nil {
				return err
			}
			word, n = m, e.proj().Size()
		case ShardModePathPQE:
			red, err := e.pathPQEReduction()
			if err != nil {
				return err
			}
			word, n = red.Auto, red.WordSize
		default:
			return fmt.Errorf("core: unknown shard mode %q", spec.Mode)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tree != nil {
		states = tree.NumStates()
	} else {
		states = word.NumStates()
	}
	if n != spec.N || states != spec.States {
		return nil, fmt.Errorf("core: shard geometry mismatch for mode %s: built (n=%d, states=%d), spec (n=%d, states=%d)",
			spec.Mode, n, states, spec.N, spec.States)
	}
	if tree != nil {
		return count.TreesRange(tree, spec.N, e.shardCountOptions(spec, maxProcs, sc), lo, hi)
	}
	return nfa.CountRange(word, spec.N, e.shardNFAOptions(spec, maxProcs, sc), lo, hi)
}

func (e *Estimator) shardCountOptions(spec ShardSpec, maxProcs int, sc *obs.Scope) count.Options {
	return count.Options{
		Epsilon:  spec.Epsilon,
		Trials:   spec.Trials,
		Samples:  spec.Samples,
		Seed:     spec.Seed,
		MaxProcs: maxProcs,
		Obs:      sc,
	}
}

func (e *Estimator) shardNFAOptions(spec ShardSpec, maxProcs int, sc *obs.Scope) nfa.CountOptions {
	return nfa.CountOptions{
		Epsilon:  spec.Epsilon,
		Trials:   spec.Trials,
		Samples:  spec.Samples,
		Seed:     spec.Seed,
		MaxProcs: maxProcs,
		Obs:      sc,
	}
}
