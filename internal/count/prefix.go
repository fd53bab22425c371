package count

import (
	"pqe/internal/efloat"
	"pqe/internal/prefix"
)

// The samplers draw from prefix-sum weight rows (internal/prefix),
// built on first use per cell and shared by every sampler of the trial.
// The builders below only say what each row's weights are.

// entryRow returns the row over state q's symbol entries at size n:
// weight i is unionLookup(entries[i], n) times the weight of the
// entry's symbol.
func (r *run) entryRow(q, n int) *prefix.Row {
	if p := r.entryPfx.Load(q, n); p != nil {
		return p
	}
	entries := r.pl.states[q]
	return r.pfx.Build(&r.entryPfx, q, n, len(entries), func(w []efloat.E) {
		for i := range entries {
			w[i] = r.unionLookup(&entries[i], n).MulWeight(r.pl.weights, entries[i].sym)
		}
	})
}

// branchRow returns the row over a multi-branch entry's transition
// tuples at size n: weight j is forestLookup(tuples[j], n−1).
func (r *run) branchRow(en *symTrans, n int) *prefix.Row {
	if p := r.branchPfx.Load(en.slot, n); p != nil {
		return p
	}
	return r.pfx.Build(&r.branchPfx, en.slot, n, len(en.tuples), func(w []efloat.E) {
		for j, tid := range en.tuples {
			w[j] = r.forestLookup(tid, n-1)
		}
	})
}

// splitRow returns the row over first-tree sizes for forest tuple tid
// at total size m: weight j−1 (j = 1..maxHead) is
// treeLookup(tuple[0], j) · forestLookup(rest, m−j). maxHead is a
// function of (tid, m), so the cell key determines the row length.
func (r *run) splitRow(tid, m, maxHead int) *prefix.Row {
	if p := r.splitPfx.Load(tid, m); p != nil {
		return p
	}
	return r.pfx.Build(&r.splitPfx, tid, m, maxHead, func(w []efloat.E) {
		head, rest := r.pl.tuples[tid][0], r.pl.restID[tid]
		for j := 1; j <= maxHead; j++ {
			w[j-1] = r.treeLookup(head, j).Mul(r.forestLookup(rest, m-j))
		}
	})
}
