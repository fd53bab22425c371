package nfa

import (
	"pqe/internal/dense"
	"pqe/internal/union"
)

// wordPlan is the immutable, seed-independent half of a counting
// session over one NFA: the frozen dense index (transition structure,
// interned target sets) plus the dense-table geometry derived from it.
// It is built once per automaton version and cached on the automaton,
// so every trial, call and session shares one plan; the embedded
// harness plan pools the mutable per-trial runs and sampler sessions.
type wordPlan struct {
	union.Plan[*wordRun, *sampler]
	m     *NFA
	ix    *denseIndex
	built uint64
}

// kind names the word engine's telemetry.
var kind = union.NewKind("countnfa", "nfa", "count.nfa", [2]string{"word_keys", "union_keys"}, "interned_sets")

// planFor returns the automaton's cached plan, building and caching it
// on a miss (or after a structural mutation). Concurrent builders may
// race; each result is equivalent and fully usable, and the last store
// wins.
func planFor(m *NFA) (pl *wordPlan, hit bool) {
	if pl := m.cplan.Load(); pl != nil && pl.built == m.version {
		return pl, true
	}
	pl = &wordPlan{m: m, ix: m.index(), built: m.version}
	pl.Init(kind, m.numStates, len(pl.ix.sets), pl.newRun, func() *sampler { return newSampler(pl) })
	m.cplan.Store(pl)
	return pl, false
}

// newRun returns a fresh run over the plan's geometry.
func (pl *wordPlan) newRun() *wordRun {
	return &wordRun{
		pl:     pl,
		finals: pl.m.final,
		words:  dense.NewTable(pl.m.numStates),
		unions: dense.NewTable(len(pl.ix.sets)),
	}
}
