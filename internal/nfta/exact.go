package nfta

import "math/big"

// EnumerateTrees calls yield for every distinct labelled tree of size n
// accepted by the (λ-free) automaton, stopping early if yield returns
// false. It enumerates candidate trees over the automaton's alphabet
// and realized (symbol, arity) pairs and filters by acceptance, so it is
// exponential in n: strictly a test oracle.
func EnumerateTrees(a *NFTA, n int, yield func(*Tree) bool) {
	seen := make(map[string]bool)
	stop := false
	enumAll(a, n, func(t *Tree) {
		if stop {
			return
		}
		k := t.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		if a.Accepts(t) {
			if !yield(t) {
				stop = true
			}
		}
	})
}

// ExactCount returns |L_n(T)| exactly by enumeration, or on a weighted
// automaton the total weight of L_n(T). Test oracle only.
func ExactCount(a *NFTA, n int) *big.Int {
	count := big.NewInt(0)
	EnumerateTrees(a, n, func(t *Tree) bool {
		count.Add(count, a.weightOf(t))
		return true
	})
	return count
}

// weightOf returns the product of the weights of t's node labels, each
// taken as the integer its efloat holds.
func (a *NFTA) weightOf(t *Tree) *big.Int {
	w := a.symWeight(t.Sym)
	for _, c := range t.Children {
		w.Mul(w, a.weightOf(c))
	}
	return w
}

// symWeight returns a fresh copy of symbol sym's weight as an integer.
func (a *NFTA) symWeight(sym int) *big.Int {
	if a.weights == nil {
		return big.NewInt(1)
	}
	return a.weights[sym].BigInt()
}

// enumAll enumerates all trees of size n whose node labels and arities
// appear in the automaton's transition relation (any tree outside this
// family is trivially rejected).
func enumAll(a *NFTA, n int, visit func(*Tree)) {
	// Collect realized (symbol, arity) pairs.
	type sa struct{ sym, arity int }
	pairs := make(map[sa]bool)
	for _, tr := range a.Transitions() {
		if tr.Sym == Lambda {
			continue
		}
		pairs[sa{tr.Sym, len(tr.Children)}] = true
	}
	var symArities []sa
	for p := range pairs {
		symArities = append(symArities, p)
	}

	// trees(n) yields all trees of exactly n nodes.
	var trees func(n int, visit func(*Tree))
	var forests func(count, total int, visit func([]*Tree))
	trees = func(n int, visit func(*Tree)) {
		if n <= 0 {
			return
		}
		for _, p := range symArities {
			if p.arity == 0 {
				if n == 1 {
					visit(Leaf(p.sym))
				}
				continue
			}
			if n-1 < p.arity {
				continue
			}
			sym := p.sym
			forests(p.arity, n-1, func(children []*Tree) {
				visit(&Tree{Sym: sym, Children: append([]*Tree(nil), children...)})
			})
		}
	}
	forests = func(count, total int, visit func([]*Tree)) {
		if count == 0 {
			if total == 0 {
				visit(nil)
			}
			return
		}
		for first := 1; first <= total-(count-1); first++ {
			trees(first, func(t *Tree) {
				forests(count-1, total-first, func(rest []*Tree) {
					visit(append([]*Tree{t}, rest...))
				})
			})
		}
	}
	trees(n, visit)
}
