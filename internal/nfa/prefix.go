package nfa

import (
	"pqe/internal/efloat"
	"pqe/internal/prefix"
)

// The samplers draw from prefix-sum weight rows (internal/prefix),
// built on first use per cell and shared by every sampler of the trial.
// The builders below only say what each row's weights are.

// entryRow returns the row over state q's symbol entries with rem
// letters remaining: weight i is unionLookup(entries[i], rem−1).
func (r *wordRun) entryRow(q, rem int) *prefix.Row {
	if p := r.entryPfx.Load(q, rem); p != nil {
		return p
	}
	entries := r.pl.ix.states[q]
	return r.pfx.Build(&r.entryPfx, q, rem, len(entries), func(w []efloat.E) {
		for i := range entries {
			w[i] = r.unionLookup(&entries[i], rem-1)
		}
	})
}

// targetRow returns the row over an interned target set's states at
// suffix length l: weight j is wordLookup(sets[set][j], l). The interned
// slice aliases the automaton's own target slice (and m.initial for the
// top set), so the row order matches the sampler's canonical branch
// order exactly.
func (r *wordRun) targetRow(set, l int) *prefix.Row {
	if p := r.targetPfx.Load(set, l); p != nil {
		return p
	}
	targets := r.pl.ix.sets[set]
	return r.pfx.Build(&r.targetPfx, set, l, len(targets), func(w []efloat.E) {
		for j, t := range targets {
			w[j] = r.wordLookup(t, l)
		}
	})
}
