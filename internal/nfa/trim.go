package nfa

import "sort"

// Trim returns an equivalent automaton restricted to useful states:
// those reachable from an initial state and co-reachable to an
// accepting state, with the same weights. L(Trim(M)) = L(M) at every
// length; the counting
// estimator's per-(state, length) tables shrink accordingly. Both
// closures run on the automaton's dense index — forward over the
// per-state entries, backward over the reverse CSR adjacency — rather
// than rebuilding an incoming-edge map per call.
func (m *NFA) Trim() *NFA {
	ix := m.index()
	reachable := make([]bool, m.numStates)
	queue := append([]int(nil), m.initial...)
	for _, q := range queue {
		reachable[q] = true
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, en := range ix.states[q] {
			for _, r := range en.targets {
				if !reachable[r] {
					reachable[r] = true
					queue = append(queue, r)
				}
			}
		}
	}
	// Co-reachable: backward closure from the accepting states over the
	// reverse CSR.
	coreach := make([]bool, m.numStates)
	queue = queue[:0]
	m.final.ForEach(func(q int) {
		coreach[q] = true
		queue = append(queue, q)
	})
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, p := range ix.inFrom[ix.inStart[q]:ix.inStart[q+1]] {
			if !coreach[p] {
				coreach[p] = true
				queue = append(queue, int(p))
			}
		}
	}

	keep := make([]int, m.numStates)
	out := NewWithSymbols(m.Symbols)
	out.weights = m.weights
	for q := 0; q < m.numStates; q++ {
		if reachable[q] && coreach[q] {
			keep[q] = out.AddState()
		} else {
			keep[q] = -1
		}
	}
	var initial []int
	for _, q := range m.initial {
		if keep[q] >= 0 {
			initial = append(initial, keep[q])
		}
	}
	// An automaton with an empty language keeps one initial state.
	if len(initial) == 0 && len(m.initial) > 0 {
		q := out.AddState()
		initial = []int{q}
	}
	sort.Ints(initial)
	out.SetInitial(initial...)
	m.final.ForEach(func(q int) {
		if keep[q] >= 0 {
			out.SetFinal(keep[q])
		}
	})
	// Copy transitions per (state, symbol) entry: keep is monotone over
	// surviving states, so a filtered-and-renumbered target set stays
	// sorted and installs in one step; all sets share one backing
	// buffer.
	total := 0
	for q := 0; q < m.numStates; q++ {
		if keep[q] < 0 {
			continue
		}
		for _, en := range ix.states[q] {
			total += len(en.targets)
		}
	}
	buf := make([]int, 0, total)
	for q := 0; q < m.numStates; q++ {
		if keep[q] < 0 {
			continue
		}
		for _, en := range ix.states[q] {
			start := len(buf)
			for _, r := range en.targets {
				if keep[r] >= 0 {
					buf = append(buf, keep[r])
				}
			}
			if len(buf) > start {
				out.SetTargetsSym(keep[q], en.sym, buf[start:len(buf):len(buf)])
			}
		}
	}
	return out
}
