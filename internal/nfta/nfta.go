package nfta

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"pqe/internal/alphabet"
	"pqe/internal/bitset"
	"pqe/internal/efloat"
)

// Lambda is the pseudo-symbol of λ-transitions (s, λ, R). Automata must
// be λ-free (see EliminateLambda) before acceptance testing or counting.
const Lambda = -1

// Transition is a tuple (From, Sym, Children) ∈ S × Σ × (∪ᵢ Sⁱ). A leaf
// transition has an empty Children tuple.
type Transition struct {
	From     int
	Sym      int // symbol ID, or Lambda
	Children []int
}

// key returns a canonical identity for deduplication.
func (tr Transition) key() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(tr.From))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(tr.Sym))
	b.WriteByte('|')
	for _, c := range tr.Children {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	return b.String()
}

// NFTA is a top-down non-deterministic finite tree automaton
// T = (S, Σ, Δ, s_init).
type NFTA struct {
	Symbols   *alphabet.Interner
	numStates int
	initial   int
	trans     []Transition
	numLambda int
	// weights[a] multiplies the weight of every tree with a node
	// labelled a; nil means every weight is 1 (see Weighted).
	weights []efloat.E
	// seen deduplicates transitions; nil disables deduplication for
	// constructions whose output is duplicate-free by construction
	// (translations, λ-elimination, trim), where the key-string build
	// and map insert per transition are pure overhead.
	seen map[string]bool
	// version counts structural mutations (states, transitions, initial
	// state). The lazily built caches below — and the counting engine's
	// plan — are keyed to it, so a mutation can never alias a stale
	// cache, even when it leaves the transition and state counts
	// unchanged (e.g. SetInitial).
	version uint64
	acc     atomic.Pointer[accIndex]
	from    atomic.Pointer[fromIndex]
	plan    atomic.Pointer[enginePlanBox]
}

// Weighted returns a under per-symbol weights: a tree weighs the
// product of w[a] over its node labels, and the counters (the counting
// engine, ExactCount, ExactCountDet) return the total weight of L_n(T)
// instead of its size. w is indexed by symbol ID; nil means every
// weight is 1. Transitions on zero-weight symbols are dropped and the
// result trimmed. Otherwise the result is a view sharing a's
// transitions and indexes, so neither may be mutated afterwards. When
// every remaining weight is 1 the result is unweighted, and a itself if
// nothing was dropped. The automaton must be λ-free.
func (a *NFTA) Weighted(w []efloat.E) *NFTA {
	unit, zero := true, false
	for _, x := range w {
		zero = zero || x.IsZero()
		unit = unit && (x.IsZero() || x.Cmp(efloat.One) == 0)
	}
	src := a
	if zero {
		src = newNoDedup(a.Symbols)
		src.numStates, src.initial = a.numStates, a.initial
		for _, tr := range a.trans {
			if !w[tr.Sym].IsZero() {
				src.AddTransitionShared(tr.From, tr.Sym, tr.Children)
			}
		}
		src = src.Trim()
	}
	if unit {
		return src
	}
	v := &NFTA{Symbols: src.Symbols, numStates: src.numStates, initial: src.initial,
		trans: src.trans, numLambda: src.numLambda, weights: w, version: src.version}
	v.acc.Store(src.accIdx())
	v.from.Store(src.fromIdx())
	return v
}

// Weights returns the per-symbol weight vector, nil when unweighted.
func (a *NFTA) Weights() []efloat.E { return a.weights }

// enginePlanBox pairs a counting engine's cached per-automaton plan
// with the structural version it was built at, the same lazy keying as
// accIndex. The value is opaque to this package: the engine
// (internal/count) defines the plan type, and keeping the slot here
// lets every session over one automaton share one plan without an
// import cycle.
type enginePlanBox struct {
	version uint64
	v       any
}

// EnginePlan returns the value stored by SetEnginePlan, if the
// automaton's structural version is unchanged since it was stored.
// (An earlier revision keyed the cache by (len(trans), numStates),
// which collides for structurally different automata of equal sizes —
// SetInitial, in particular, changes the language without changing
// either count.)
func (a *NFTA) EnginePlan() (any, bool) {
	if b := a.plan.Load(); b != nil && b.version == a.version {
		return b.v, true
	}
	return nil, false
}

// SetEnginePlan caches an engine plan on the automaton, keyed to its
// current structural version. Concurrent builders may race to store;
// each keeps a fully usable plan either way, and the last store wins.
func (a *NFTA) SetEnginePlan(v any) {
	a.plan.Store(&enginePlanBox{version: a.version, v: v})
}

// Version returns the monotone structural mutation counter.
func (a *NFTA) Version() uint64 { return a.version }

// accIndex is a dense (symbol, arity) → transitions lookup for the
// acceptance hot path: one slice indexing instead of a map hash per
// tree node. It is rebuilt lazily whenever transitions were added since
// the last build; concurrent readers may race to rebuild, which is
// idempotent (mutating an automaton while testing acceptance on it is
// not supported).
type accIndex struct {
	nsyms, maxAr int
	cells        [][]int32 // sym*(maxAr+1)+arity -> transition indices
	built        uint64    // automaton version at build time
}

func (a *NFTA) accIdx() *accIndex {
	if idx := a.acc.Load(); idx != nil && idx.built == a.version {
		return idx
	}
	idx := &accIndex{nsyms: a.Symbols.Size(), maxAr: a.MaxArity(), built: a.version}
	idx.cells = make([][]int32, idx.nsyms*(idx.maxAr+1))
	for j, tr := range a.trans {
		if tr.Sym == Lambda {
			continue
		}
		c := tr.Sym*(idx.maxAr+1) + len(tr.Children)
		idx.cells[c] = append(idx.cells[c], int32(j))
	}
	a.acc.Store(idx)
	return idx
}

// lookup returns the transitions with the given root symbol and arity.
func (x *accIndex) lookup(sym, arity int) []int32 {
	if sym < 0 || sym >= x.nsyms || arity > x.maxAr {
		return nil
	}
	return x.cells[sym*(x.maxAr+1)+arity]
}

// fromIndex is a CSR state → transition-indices lookup, rebuilt lazily
// on version change exactly like accIndex. Keeping it out of insert
// matters: the reduction pipeline materializes the same construction
// several times (translation, λ-elimination, trim), and an eager
// per-insert index pays two map appends per transition on automata
// whose index is consulted once, if ever.
type fromIndex struct {
	off   []int32 // off[q]..off[q+1]: slots of state q in idx
	idx   []int32 // transition indices grouped by From, insertion order
	built uint64  // automaton version at build time
}

func (a *NFTA) fromIdx() *fromIndex {
	if ix := a.from.Load(); ix != nil && ix.built == a.version {
		return ix
	}
	ix := &fromIndex{built: a.version}
	ix.off = make([]int32, a.numStates+1)
	for _, tr := range a.trans {
		ix.off[tr.From+1]++
	}
	for q := 0; q < a.numStates; q++ {
		ix.off[q+1] += ix.off[q]
	}
	ix.idx = make([]int32, len(a.trans))
	cur := append([]int32(nil), ix.off[:a.numStates]...)
	for j, tr := range a.trans {
		ix.idx[cur[tr.From]] = int32(j)
		cur[tr.From]++
	}
	a.from.Store(ix)
	return ix
}

// of returns the indices of the transitions out of state q.
func (x *fromIndex) of(q int) []int32 { return x.idx[x.off[q]:x.off[q+1]] }

type symArity struct{ sym, arity int }

// New returns an empty NFTA over a fresh alphabet. The initial state
// must be set with SetInitial.
func New() *NFTA {
	return NewWithSymbols(alphabet.New())
}

// NewWithSymbols returns an empty NFTA sharing an existing interner.
func NewWithSymbols(sym *alphabet.Interner) *NFTA {
	return &NFTA{
		Symbols: sym,
		initial: -1,
		seen:    make(map[string]bool),
	}
}

// newNoDedup returns an empty NFTA that skips transition deduplication.
// Only for constructions that never feed it a duplicate (from, sym,
// children) triple: a duplicate would be stored twice and double-count
// in the engines. Callers in this package: translations over
// duplicate-free sources, λ-elimination's final copy, Trim.
func newNoDedup(sym *alphabet.Interner) *NFTA {
	return &NFTA{
		Symbols: sym,
		initial: -1,
	}
}

// AddState allocates a new state.
func (a *NFTA) AddState() int {
	a.numStates++
	a.version++
	return a.numStates - 1
}

// NumStates returns |S|.
func (a *NFTA) NumStates() int { return a.numStates }

// SetInitial sets s_init.
func (a *NFTA) SetInitial(q int) {
	a.checkState(q)
	a.initial = q
	a.version++
}

// Initial returns s_init (-1 if unset).
func (a *NFTA) Initial() int { return a.initial }

func (a *NFTA) checkState(q int) {
	if q < 0 || q >= a.numStates {
		panic(fmt.Sprintf("nfta: state %d out of range [0,%d)", q, a.numStates))
	}
}

// AddTransition adds (from, sym, children) to Δ, interning the symbol
// name. Duplicates are ignored.
func (a *NFTA) AddTransition(from int, symbol string, children ...int) {
	a.AddTransitionSym(from, a.Symbols.Intern(symbol), children...)
}

// AddLambda adds a λ-transition (from, λ, children).
func (a *NFTA) AddLambda(from int, children ...int) {
	a.AddTransitionSym(from, Lambda, children...)
}

// AddTransitionSym adds a transition with an interned symbol ID (or
// Lambda). The children slice is copied.
func (a *NFTA) AddTransitionSym(from, sym int, children ...int) {
	a.insert(from, sym, children, true)
}

// AddTransitionShared is AddTransitionSym without the defensive copy:
// the automaton takes ownership of children, which the caller must not
// modify afterwards. For builders whose tuples come from an arena with
// the same lifetime as the automaton.
func (a *NFTA) AddTransitionShared(from, sym int, children []int) {
	a.insert(from, sym, children, false)
}

// grow reserves capacity for n more transitions. The construction
// pipeline materializes transition lists whose exact sizes are known
// (or tightly bounded) up front; reserving once avoids the append
// doubling that otherwise dominates allocation volume.
func (a *NFTA) grow(n int) {
	if cap(a.trans)-len(a.trans) < n {
		nt := make([]Transition, len(a.trans), len(a.trans)+n)
		copy(nt, a.trans)
		a.trans = nt
	}
}

func (a *NFTA) insert(from, sym int, children []int, copyChildren bool) {
	a.checkState(from)
	for _, c := range children {
		a.checkState(c)
	}
	if copyChildren {
		children = append([]int(nil), children...)
	}
	tr := Transition{From: from, Sym: sym, Children: children}
	if a.seen != nil {
		k := tr.key()
		if a.seen[k] {
			return
		}
		a.seen[k] = true
	}
	if sym == Lambda {
		a.numLambda++
	}
	a.trans = append(a.trans, tr)
	a.version++
}

// Transitions returns all transitions. The slice must not be modified.
func (a *NFTA) Transitions() []Transition { return a.trans }

// From returns the transitions out of state q.
func (a *NFTA) From(q int) []Transition {
	idx := a.fromIdx().of(q)
	out := make([]Transition, len(idx))
	for i, j := range idx {
		out[i] = a.trans[j]
	}
	return out
}

// NumTransitions returns |Δ|.
func (a *NFTA) NumTransitions() int { return len(a.trans) }

// Size returns the encoding size of the transition relation (the paper's
// |T|): one unit per tuple element.
func (a *NFTA) Size() int {
	n := 0
	for _, tr := range a.trans {
		n += 2 + len(tr.Children)
	}
	return n
}

// HasLambda reports whether any λ-transitions remain.
func (a *NFTA) HasLambda() bool { return a.numLambda > 0 }

// MaxArity returns the largest children-tuple length in Δ.
func (a *NFTA) MaxArity() int {
	k := 0
	for _, tr := range a.trans {
		if len(tr.Children) > k {
			k = len(tr.Children)
		}
	}
	return k
}

// AcceptingStates returns the set of states q such that the tree is
// accepted starting from q, computed by the standard bottom-up product
// check. The automaton must be λ-free.
func (a *NFTA) AcceptingStates(t *Tree) map[int]bool {
	if a.HasLambda() {
		panic("nfta: AcceptingStates on automaton with λ-transitions")
	}
	return a.acceptingStates(t)
}

func (a *NFTA) acceptingStates(t *Tree) map[int]bool {
	childAcc := make([]map[int]bool, len(t.Children))
	for i, c := range t.Children {
		childAcc[i] = a.acceptingStates(c)
	}
	acc := make(map[int]bool)
	for _, j := range a.accIdx().lookup(t.Sym, len(t.Children)) {
		tr := a.trans[j]
		if acc[tr.From] {
			continue
		}
		ok := true
		for i, q := range tr.Children {
			if !childAcc[i][q] {
				ok = false
				break
			}
		}
		if ok {
			acc[tr.From] = true
		}
	}
	return acc
}

// AcceptingStatesInto computes the accepting-state set of the tree as a
// bit set: bit q is set iff the tree is accepted starting from q. dst
// must have capacity for NumStates bits and is cleared first; pool
// supplies same-capacity scratch sets for the recursion (one live set
// per tree level), so a steady-state caller allocates nothing. The
// automaton must be λ-free.
func (a *NFTA) AcceptingStatesInto(t *Tree, dst bitset.Set, pool *bitset.Pool) {
	if a.HasLambda() {
		panic("nfta: AcceptingStatesInto on automaton with λ-transitions")
	}
	a.acceptingInto(t, dst, pool)
}

func (a *NFTA) acceptingInto(t *Tree, dst bitset.Set, pool *bitset.Pool) {
	a.acceptingIntoIdx(a.accIdx(), t, dst, pool)
}

func (a *NFTA) acceptingIntoIdx(idx *accIndex, t *Tree, dst bitset.Set, pool *bitset.Pool) {
	dst.Clear()
	k := len(t.Children)
	var stack [4]bitset.Set
	childAcc := stack[:0]
	if k > len(stack) {
		childAcc = make([]bitset.Set, 0, k)
	}
	for _, c := range t.Children {
		s := pool.Get()
		a.acceptingIntoIdx(idx, c, s, pool)
		childAcc = append(childAcc, s)
	}
	for _, j := range idx.lookup(t.Sym, k) {
		tr := a.trans[j]
		if dst.Has(tr.From) {
			continue
		}
		ok := true
		for i, q := range tr.Children {
			if !childAcc[i].Has(q) {
				ok = false
				break
			}
		}
		if ok {
			dst.Add(tr.From)
		}
	}
	for _, s := range childAcc {
		pool.Put(s)
	}
}

// Accepts reports whether the tree is in L(T).
func (a *NFTA) Accepts(t *Tree) bool {
	if a.initial < 0 {
		panic("nfta: initial state unset")
	}
	return a.AcceptingStates(t)[a.initial]
}

// AcceptsFrom reports whether the tree is accepted starting from q.
func (a *NFTA) AcceptsFrom(q int, t *Tree) bool {
	return a.AcceptingStates(t)[q]
}

// AcceptsForestFrom reports whether the forest (an ordered list of
// trees) is accepted by the state tuple: tree i from states[i].
func (a *NFTA) AcceptsForestFrom(states []int, forest []*Tree) bool {
	if len(states) != len(forest) {
		return false
	}
	for i, t := range forest {
		if !a.AcceptsFrom(states[i], t) {
			return false
		}
	}
	return true
}

// String renders the automaton for debugging.
func (a *NFTA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFTA states=%d init=%d\n", a.numStates, a.initial)
	for _, tr := range a.trans {
		sym := "λ"
		if tr.Sym != Lambda {
			sym = a.Symbols.Name(tr.Sym)
		}
		children := make([]string, len(tr.Children))
		for i, c := range tr.Children {
			children[i] = strconv.Itoa(c)
		}
		fmt.Fprintf(&b, "  %d --%s--> (%s)\n", tr.From, sym, strings.Join(children, ","))
	}
	return b.String()
}
