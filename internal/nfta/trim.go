package nfta

// Trim returns an equivalent automaton restricted to useful states:
// those reachable from the initial state *and* productive (able to
// accept at least one finite tree), with the same weights. The
// reductions and gadget translations naturally create dead states —
// e.g. the binary comparator's unreachable free-track head, or bag
// states whose children can never be completed — and every dead state
// the counting estimator never has to consider shrinks its memo tables
// and membership checks. L(Trim(T)) = L(T) at every size.
//
// The automaton must be λ-free. Its transition list must not contain
// duplicates — guaranteed for automata built through the deduplicating
// AddTransitionSym path and for the translations in this package.
func (a *NFTA) Trim() *NFTA {
	if a.HasLambda() {
		panic("nfta: Trim on automaton with λ-transitions")
	}
	// Productive: least fixpoint over transitions. The scan runs in
	// reverse list order: the translations emit chains parent-first, so
	// a forward pass propagates productivity one link per round (rounds
	// proportional to the longest chain), while a reverse pass walks
	// each chain end-to-start and converges in a couple of rounds. The
	// fixpoint is the same either way.
	productive := make([]bool, a.numStates)
	for changed := true; changed; {
		changed = false
		for i := len(a.trans) - 1; i >= 0; i-- {
			tr := a.trans[i]
			if productive[tr.From] {
				continue
			}
			ok := true
			for _, c := range tr.Children {
				if !productive[c] {
					ok = false
					break
				}
			}
			if ok {
				productive[tr.From] = true
				changed = true
			}
		}
	}
	// Reachable: forward closure through transitions whose children are
	// all productive (unproductive children kill the branch anyway).
	reachable := make([]bool, a.numStates)
	if a.initial >= 0 {
		ix := a.fromIdx()
		queue := []int{a.initial}
		reachable[a.initial] = true
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			for _, j := range ix.of(q) {
				tr := a.trans[j]
				usable := true
				for _, c := range tr.Children {
					if !productive[c] {
						usable = false
						break
					}
				}
				if !usable {
					continue
				}
				for _, c := range tr.Children {
					if !reachable[c] {
						reachable[c] = true
						queue = append(queue, c)
					}
				}
			}
		}
	}

	keep := make([]int, a.numStates) // old -> new, -1 dropped
	// The source transition list is deduplicated (or duplicate-free by
	// construction), and renumbering is injective, so the output needs
	// no dedup of its own; kept children tuples are carved out of one
	// backing buffer.
	out := newNoDedup(a.Symbols)
	out.weights = a.weights
	for q := 0; q < a.numStates; q++ {
		if reachable[q] && productive[q] {
			keep[q] = out.AddState()
		} else {
			keep[q] = -1
		}
	}
	// The initial state survives even if unproductive (empty language):
	// an automaton needs an initial state.
	if a.initial >= 0 && keep[a.initial] < 0 {
		keep[a.initial] = out.AddState()
	}
	if a.initial >= 0 {
		out.SetInitial(keep[a.initial])
	}
	total, kept := 0, 0
	for _, tr := range a.trans {
		if keep[tr.From] >= 0 {
			total += len(tr.Children)
			kept++
		}
	}
	out.grow(kept)
	buf := make([]int, 0, total)
	for _, tr := range a.trans {
		if keep[tr.From] < 0 {
			continue
		}
		ok := true
		start := len(buf)
		for _, c := range tr.Children {
			if keep[c] < 0 {
				ok = false
				break
			}
			buf = append(buf, keep[c])
		}
		if ok {
			out.AddTransitionShared(keep[tr.From], tr.Sym, buf[start:len(buf):len(buf)])
		} else {
			buf = buf[:start]
		}
	}
	return out
}
