// Package nfa implements non-deterministic finite string automata
// (Section 2 of the paper) together with two counters for |L_n(M)|, the
// number of distinct strings of length n accepted:
//
//   - an exact counter based on lazy subset construction, used as a test
//     oracle and for small instances; and
//   - CountNFA, a randomized approximation scheme following the
//     structure of Arenas, Croquevielle, Jayaram and Riveros [5]:
//     per-(state, length) cardinality estimates and near-uniform
//     samplers, combined bottom-up, with overlaps between
//     non-deterministic branches resolved by sampling plus
//     polynomial-time membership tests.
//
// Counting distinct accepted strings (rather than accepting runs) is
// what makes the problem #P-hard and is exactly the quantity the
// reductions of the paper need: an accepted string encodes a satisfying
// subinstance once, even when many witness choices (runs) accept it.
//
// The approximate counter runs on the union estimator harness
// (internal/union) that the tree engine (internal/count) runs too. This
// package supplies the word kernels: dense [state][length] memo tables
// (internal/dense), interned target-set union slots, subset-simulation
// acceptance over a dense transition index cached on the automaton,
// and the cell-keyed site rule.
package nfa

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"pqe/internal/alphabet"
	"pqe/internal/bitset"
	"pqe/internal/efloat"
)

// NFA is a non-deterministic finite automaton (S, Σ, δ, I, F). States
// are dense ints in [0, NumStates).
type NFA struct {
	Symbols   *alphabet.Interner
	numStates int
	// trans[q][a] is the sorted set of targets δ(q, a).
	trans   []map[int][]int
	initial []int
	final   bitset.Set
	// weights[a] multiplies the weight of every word through a
	// transition on symbol a; nil means every weight is 1 (see
	// Weighted).
	weights []efloat.E
	// version counts structural mutations; the cached dense index is
	// rebuilt when it falls behind. Mutating an automaton while counting
	// or acceptance-testing on it concurrently is not supported.
	version uint64
	idx     atomic.Pointer[denseIndex]
	// cplan caches the counting engine's per-automaton plan (pool of
	// runs and samplers over the dense index), keyed by version like
	// idx. See plan.go.
	cplan atomic.Pointer[wordPlan]
}

// Weighted returns m under per-symbol weights: a word weighs the
// product of w[a] over its letters, and the counters (Count,
// ExactCount) return the total weight of L_n(M) instead of its size. w
// is indexed by symbol ID; nil means every weight is 1. Transitions on
// zero-weight symbols are dropped and the result trimmed. Otherwise the
// result is a view sharing m's transitions and dense index, so neither
// may be mutated afterwards. When every remaining weight is 1 the
// result is unweighted, and m itself if nothing was dropped.
func (m *NFA) Weighted(w []efloat.E) *NFA {
	unit, zero := true, false
	for _, x := range w {
		zero = zero || x.IsZero()
		unit = unit && (x.IsZero() || x.Cmp(efloat.One) == 0)
	}
	src := m
	if zero {
		src = NewWithSymbols(m.Symbols)
		src.AddStates(m.numStates)
		src.SetInitial(m.initial...)
		src.SetFinal(m.Finals()...)
		for q, bySym := range m.trans {
			for a, targets := range bySym {
				if !w[a].IsZero() {
					src.SetTargetsSym(q, a, targets)
				}
			}
		}
		src = src.Trim()
	}
	if unit {
		return src
	}
	v := &NFA{Symbols: src.Symbols, numStates: src.numStates, trans: src.trans,
		initial: src.initial, final: src.final, weights: w, version: src.version}
	v.idx.Store(src.index())
	return v
}

// New returns an empty NFA over a fresh alphabet.
func New() *NFA {
	return &NFA{Symbols: alphabet.New()}
}

// NewWithSymbols returns an empty NFA sharing an existing interner.
func NewWithSymbols(sym *alphabet.Interner) *NFA {
	return &NFA{Symbols: sym}
}

// AddState allocates a new state and returns its ID.
func (m *NFA) AddState() int {
	m.trans = append(m.trans, nil)
	m.numStates++
	m.version++
	return m.numStates - 1
}

// AddStates allocates n states and returns the first ID.
func (m *NFA) AddStates(n int) int {
	first := m.numStates
	for i := 0; i < n; i++ {
		m.AddState()
	}
	return first
}

// NumStates returns |S|.
func (m *NFA) NumStates() int { return m.numStates }

// AddTransition adds (q, a, r) to δ. Symbol is given by name and
// interned. Duplicate transitions are ignored.
func (m *NFA) AddTransition(q int, symbol string, r int) {
	m.AddTransitionSym(q, m.Symbols.Intern(symbol), r)
}

// AddTransitionSym adds (q, a, r) with an already-interned symbol ID.
func (m *NFA) AddTransitionSym(q, sym, r int) {
	m.checkState(q)
	m.checkState(r)
	if m.trans[q] == nil {
		m.trans[q] = make(map[int][]int)
	}
	targets := m.trans[q][sym]
	i := sort.SearchInts(targets, r)
	if i < len(targets) && targets[i] == r {
		return
	}
	targets = append(targets, 0)
	copy(targets[i+1:], targets[i:])
	targets[i] = r
	m.trans[q][sym] = targets
	m.version++
}

// SetTargetsSym installs targets as δ(q, sym) in one step, replacing
// any existing set. targets must be sorted ascending and duplicate-free;
// the automaton takes ownership of the slice (no copy), so the caller
// must not modify it afterwards. Builders that emit each (state, symbol)
// pair exactly once with naturally sorted targets use this to skip the
// per-element sorted-insert of AddTransitionSym.
func (m *NFA) SetTargetsSym(q, sym int, targets []int) {
	m.checkState(q)
	for i, r := range targets {
		m.checkState(r)
		if i > 0 && targets[i-1] >= r {
			panic(fmt.Sprintf("nfa: SetTargetsSym targets not sorted/unique: %v", targets))
		}
	}
	if len(targets) == 0 {
		return
	}
	if m.trans[q] == nil {
		m.trans[q] = make(map[int][]int, 2)
	}
	m.trans[q][sym] = targets
	m.version++
}

func (m *NFA) checkState(q int) {
	if q < 0 || q >= m.numStates {
		panic(fmt.Sprintf("nfa: state %d out of range [0,%d)", q, m.numStates))
	}
}

// SetInitial marks states as initial.
func (m *NFA) SetInitial(states ...int) {
	for _, q := range states {
		m.checkState(q)
		m.initial = append(m.initial, q)
	}
	sort.Ints(m.initial)
	m.initial = dedupInts(m.initial)
	m.version++
}

// SetFinal marks states as accepting.
func (m *NFA) SetFinal(states ...int) {
	for _, q := range states {
		m.checkState(q)
		for q/64 >= len(m.final) {
			m.final = append(m.final, 0)
		}
		m.final.Add(q)
	}
	m.version++
}

// Initial returns the sorted initial state set.
func (m *NFA) Initial() []int { return m.initial }

// IsFinal reports whether q ∈ F.
func (m *NFA) IsFinal(q int) bool { return m.final.Has(q) }

// Targets returns δ(q, a), sorted. The returned slice must not be
// modified.
func (m *NFA) Targets(q, sym int) []int {
	if m.trans[q] == nil {
		return nil
	}
	return m.trans[q][sym]
}

// OutSymbols returns the symbols with at least one transition out of q,
// sorted.
func (m *NFA) OutSymbols(q int) []int {
	if m.trans[q] == nil {
		return nil
	}
	syms := make([]int, 0, len(m.trans[q]))
	for a := range m.trans[q] {
		syms = append(syms, a)
	}
	sort.Ints(syms)
	return syms
}

// NumTransitions returns the number of transition tuples, the paper's
// measure of automaton size |M|.
func (m *NFA) NumTransitions() int {
	n := 0
	for _, bySym := range m.trans {
		for _, ts := range bySym {
			n += len(ts)
		}
	}
	return n
}

// EachTransition calls f for every transition tuple (q, a, r), in
// state-then-symbol order.
func (m *NFA) EachTransition(f func(from, sym, to int)) {
	for q := 0; q < m.numStates; q++ {
		for _, a := range m.OutSymbols(q) {
			for _, r := range m.Targets(q, a) {
				f(q, a, r)
			}
		}
	}
}

// Finals returns the sorted accepting states.
func (m *NFA) Finals() []int {
	out := make([]int, 0, m.final.Count())
	m.final.ForEach(func(q int) { out = append(out, q) })
	return out
}

// Step maps a sorted state set through symbol a.
func (m *NFA) Step(states []int, sym int) []int {
	var out []int
	for _, q := range states {
		out = append(out, m.Targets(q, sym)...)
	}
	sort.Ints(out)
	return dedupInts(out)
}

// Accepts reports whether the word (a sequence of symbol IDs) is in
// L(M).
func (m *NFA) Accepts(word []int) bool {
	return m.AcceptsFrom(m.initial, word)
}

// AcceptsFrom reports whether the word is accepted starting from any
// state in the given set.
func (m *NFA) AcceptsFrom(states []int, word []int) bool {
	cur := states
	for _, a := range word {
		cur = m.Step(cur, a)
		if len(cur) == 0 {
			return false
		}
	}
	for _, q := range cur {
		if m.final.Has(q) {
			return true
		}
	}
	return false
}

// WordString renders a word using the symbol names.
func (m *NFA) WordString(word []int) string {
	parts := make([]string, len(word))
	for i, a := range word {
		parts[i] = m.Symbols.Name(a)
	}
	return fmt.Sprintf("%v", parts)
}

func dedupInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// ixEntry is one state's transitions on one symbol in the dense index:
// the sorted target set δ(q, a), plus the interned ID of that set when
// it has more than one element (-1 for singletons). Entries with equal
// target sets share the interned ID, and with it the counting engine's
// union memo row.
type ixEntry struct {
	sym     int
	targets []int // aliases the automaton's sorted δ(q, a) slice
	set     int   // interned target-set ID, -1 when len(targets) == 1
}

// denseIndex is the frozen transition structure the counting, sampling
// and trimming hot paths run on: per-state symbol entries in symbol
// order (one slice scan instead of a map lookup plus sort per step),
// the interned multi-element target sets (the union memo rows), and a
// CSR reverse adjacency for backward closures. It is cached on the NFA
// and rebuilt lazily after mutations; concurrent readers may race to
// rebuild, which is idempotent.
type denseIndex struct {
	built  uint64
	states [][]ixEntry
	sets   [][]int // interned target sets with ≥ 2 elements
	topSet int     // interned initial set, -1 when |I| ≤ 1
	// numSyms bounds the symbols the entries read: every entry's sym is
	// below it.
	numSyms int
	// Reverse CSR: the sources of transitions into q are
	// inFrom[inStart[q]:inStart[q+1]] (one entry per transition tuple).
	inStart []int32
	inFrom  []int32
}

// index returns the dense index, rebuilding it if the automaton was
// mutated since the last build.
func (m *NFA) index() *denseIndex {
	if idx := m.idx.Load(); idx != nil && idx.built == m.version {
		return idx
	}
	idx := &denseIndex{built: m.version, topSet: -1}
	setIDs := make(map[string]int)
	var keyBuf []byte
	intern := func(targets []int) int {
		keyBuf = appendSetKey(keyBuf[:0], targets)
		if id, ok := setIDs[string(keyBuf)]; ok {
			return id
		}
		id := len(idx.sets)
		setIDs[string(keyBuf)] = id
		idx.sets = append(idx.sets, targets)
		return id
	}
	idx.states = make([][]ixEntry, m.numStates)
	counts := make([]int32, m.numStates+1)
	total := 0
	for q := 0; q < m.numStates; q++ {
		if len(m.trans[q]) == 0 {
			continue
		}
		// Symbols must be visited in sorted order: interned set IDs feed
		// the counting engine's per-cell RNG stream derivation, so their
		// assignment order must be a function of the automaton's
		// structure, not of map iteration.
		syms := make([]int, 0, len(m.trans[q]))
		for a := range m.trans[q] {
			syms = append(syms, a)
		}
		sort.Ints(syms)
		entries := make([]ixEntry, 0, len(syms))
		for _, a := range syms {
			targets := m.trans[q][a]
			set := -1
			if len(targets) > 1 {
				set = intern(targets)
			}
			entries = append(entries, ixEntry{sym: a, targets: targets, set: set})
			idx.numSyms = max(idx.numSyms, a+1)
			for _, r := range targets {
				counts[r+1]++
			}
			total += len(targets)
		}
		idx.states[q] = entries
	}
	if len(m.initial) > 1 {
		idx.topSet = intern(m.initial)
	}
	idx.inStart = counts
	for q := 1; q <= m.numStates; q++ {
		idx.inStart[q] += idx.inStart[q-1]
	}
	idx.inFrom = make([]int32, total)
	fill := make([]int32, m.numStates)
	copy(fill, idx.inStart[:m.numStates])
	for q := 0; q < m.numStates; q++ {
		for _, en := range idx.states[q] {
			for _, r := range en.targets {
				idx.inFrom[fill[r]] = int32(q)
				fill[r]++
			}
		}
	}
	m.idx.Store(idx)
	return idx
}

// targetsOf returns δ(q, a) through the index's sorted entries. States
// in the reductions carry only a handful of out-symbols, so a linear
// scan beats both hashing and binary search.
func (x *denseIndex) targetsOf(q, a int) []int {
	for i := range x.states[q] {
		if s := x.states[q][i].sym; s == a {
			return x.states[q][i].targets
		} else if s > a {
			return nil
		}
	}
	return nil
}

// appendSetKey appends a varint encoding of the sorted target set — the
// interner's identity key. States are small non-negative integers, so
// most sets encode to one byte per element.
func appendSetKey(dst []byte, targets []int) []byte {
	for _, t := range targets {
		dst = binary.AppendUvarint(dst, uint64(t))
	}
	return dst
}
