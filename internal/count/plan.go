package count

import (
	"encoding/binary"
	"sort"

	"pqe/internal/dense"
	"pqe/internal/efloat"
	"pqe/internal/nfta"
	"pqe/internal/union"
)

// symTrans groups one state's outgoing transitions on one symbol: the
// interned children tuples in a fixed (canonical) order, plus the row
// of the unions memo table when there is more than one branch.
type symTrans struct {
	sym    int
	tuples []int
	slot   int // unions table row, -1 when len(tuples) == 1
}

// plan is the immutable, seed-independent half of a counting session:
// the interned transition structure (children tuples, their suffix
// chains, per-state symbol entries) and the dense-table geometry derived
// from it. It is built once per automaton and cached on the automaton
// itself (nfta.EnginePlan), so every trial, call and session over the
// same automaton shares one plan. The embedded harness plan pools the
// mutable per-trial runs and sampler sessions.
//
// Everything outside the pool free-lists is frozen after buildPlan and
// safe for unsynchronized concurrent reads.
type plan struct {
	union.Plan[*run, *sampler]
	a       *nfta.NFTA
	weights []efloat.E // a's per-symbol weights, nil when unweighted

	// Per-state symbol entries (sorted by symbol), interned children
	// tuples, and each tuple's suffix tuple[1:] (interned eagerly so
	// sampling never mutates the interner).
	states [][]symTrans
	tuples [][]int
	restID []int
	slots  int // rows of the unions table (multi-branch entries)
}

// kind names the tree engine's telemetry.
var kind = union.NewKind("countnfta", "count", "count.trees", [2]string{"tree_keys", "forest_keys"}, "interned_tuples")

// planFor returns the automaton's cached plan, building and caching it
// on a miss. Concurrent builders may race; each result is equivalent
// and fully usable, and the last store wins. It panics on an automaton
// with λ-transitions, which the engine cannot count.
func planFor(a *nfta.NFTA) (pl *plan, hit bool) {
	if a.HasLambda() {
		panic("count: automaton has λ-transitions; run EliminateLambda first")
	}
	if v, ok := a.EnginePlan(); ok {
		if pl, ok := v.(*plan); ok {
			return pl, true
		}
	}
	pl = buildPlan(a)
	a.SetEnginePlan(pl)
	return pl, false
}

func buildPlan(a *nfta.NFTA) *plan {
	pl := &plan{a: a, weights: a.Weights()}
	tupleIDs := make(map[string]int)
	var keyBuf []byte
	var intern func(children []int) int
	intern = func(children []int) int {
		keyBuf = appendTupleKey(keyBuf[:0], children)
		k := string(keyBuf)
		if id, ok := tupleIDs[k]; ok {
			return id
		}
		id := len(pl.tuples)
		tupleIDs[k] = id
		pl.tuples = append(pl.tuples, append([]int(nil), children...))
		pl.restID = append(pl.restID, -1)
		if len(children) > 1 {
			rest := intern(children[1:])
			pl.restID[id] = rest
		}
		return id
	}
	pl.states = make([][]symTrans, a.NumStates())
	for q := 0; q < a.NumStates(); q++ {
		bySym := make(map[int]int) // symbol -> entry index
		var entries []symTrans
		for _, tr := range a.From(q) {
			id := intern(tr.Children)
			ei, ok := bySym[tr.Sym]
			if !ok {
				ei = len(entries)
				bySym[tr.Sym] = ei
				entries = append(entries, symTrans{sym: tr.Sym, slot: -1})
			}
			entries[ei].tuples = append(entries[ei].tuples, id)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].sym < entries[j].sym })
		for i := range entries {
			if len(entries[i].tuples) > 1 {
				entries[i].slot = pl.slots
				pl.slots++
			}
		}
		pl.states[q] = entries
	}
	pl.Init(kind, a.NumStates(), len(pl.tuples), pl.newRun, func() *sampler { return newSampler(pl) })
	return pl
}

// newRun returns a fresh run over the plan's geometry.
func (pl *plan) newRun() *run {
	return &run{
		pl:      pl,
		trees:   dense.NewTable(len(pl.states)),
		unions:  dense.NewTable(pl.slots),
		forests: dense.NewTable(len(pl.tuples)),
	}
}

// appendTupleKey appends a varint encoding of the children tuple — the
// interner's identity key. States are small non-negative integers, so
// most tuples encode to one byte per element with no formatting.
func appendTupleKey(dst []byte, children []int) []byte {
	for _, c := range children {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}
