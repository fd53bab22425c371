package nfa

import (
	"fmt"
	"math/big"

	"pqe/internal/alphabet"
	"pqe/internal/bitset"
)

// This file keeps the Section 5.1 multiplier gadget for string
// automata as a test oracle: the counting engines read probabilities as
// per-symbol weights (NFA.Weighted), and the oracle tests check that
// the weighted count of a base automaton equals the plain count of its
// gadget expansion.

// Digit symbol names shared with the tree-automaton gadget.
const (
	Digit0 = "0"
	Digit1 = "1"
)

// MultTransition is a transition of an NFA with multipliers: reading Sym
// from From leads to To, and the transition carries a multiplier and a
// digit budget exactly as in the tree case (Definition 2 of the paper,
// restricted to paths — footnote 2 observes the gadget is really a
// string-automaton construction).
type MultTransition struct {
	From   int
	Sym    int
	Mult   *big.Int
	Digits int
	To     int
}

// MultNFA is a non-deterministic finite string automaton with
// multipliers. Translating it inserts a binary ≤-comparator of the
// given digit width after each transition, multiplying the number of
// accepted words by Mult while keeping word lengths uniform across
// transitions with equal budgets.
type MultNFA struct {
	Symbols   *alphabet.Interner
	numStates int
	initial   []int
	final     bitset.Set
	trans     []MultTransition
}

// NewMultNFA returns an empty NFA with multipliers over the interner.
func NewMultNFA(sym *alphabet.Interner) *MultNFA {
	return &MultNFA{Symbols: sym}
}

// AddState allocates a new state.
func (m *MultNFA) AddState() int {
	m.numStates++
	return m.numStates - 1
}

// NumStates returns |S|.
func (m *MultNFA) NumStates() int { return m.numStates }

// SetInitial marks initial states.
func (m *MultNFA) SetInitial(states ...int) {
	m.initial = append(m.initial, states...)
}

// SetFinal marks accepting states.
func (m *MultNFA) SetFinal(states ...int) {
	for _, q := range states {
		for q/64 >= len(m.final) {
			m.final = append(m.final, 0)
		}
		m.final.Add(q)
	}
}

// AddTransition adds a weighted transition. Mult may be 0 (the
// transition contributes no words). The digit budget must satisfy
// Mult ≤ 2^Digits (with Digits = 0 requiring Mult ≤ 1).
func (m *MultNFA) AddTransition(from, sym int, mult *big.Int, digits int, to int) error {
	if from < 0 || from >= m.numStates || to < 0 || to >= m.numStates {
		return fmt.Errorf("nfa: state out of range")
	}
	if mult.Sign() < 0 {
		return fmt.Errorf("nfa: negative multiplier %v", mult)
	}
	if digits < 0 {
		return fmt.Errorf("nfa: negative digit budget")
	}
	if digits == 0 && mult.Cmp(big.NewInt(1)) > 0 {
		return fmt.Errorf("nfa: multiplier %v needs a positive digit budget", mult)
	}
	if digits > 0 {
		max := new(big.Int).Lsh(big.NewInt(1), uint(digits))
		if mult.Cmp(max) > 0 {
			return fmt.Errorf("nfa: multiplier %v exceeds 2^%d", mult, digits)
		}
	}
	m.trans = append(m.trans, MultTransition{
		From: from, Sym: sym,
		Mult: new(big.Int).Set(mult), Digits: digits, To: to,
	})
	return nil
}

// Translate expands every weighted transition into the symbol transition
// followed by a fixed-width binary ≤-comparator path that accepts
// exactly Mult digit strings — the string-automaton counterpart of the
// Section 5.1 tree gadget.
func (m *MultNFA) Translate() *NFA {
	out := NewWithSymbols(m.Symbols)
	for i := 0; i < m.numStates; i++ {
		out.AddState()
	}
	out.SetInitial(m.initial...)
	m.final.ForEach(func(q int) { out.SetFinal(q) })
	d0 := m.Symbols.Intern(Digit0)
	d1 := m.Symbols.Intern(Digit1)

	for _, tr := range m.trans {
		if tr.Mult.Sign() == 0 {
			continue
		}
		if tr.Digits == 0 {
			out.AddTransitionSym(tr.From, tr.Sym, tr.To)
			continue
		}
		k := tr.Digits
		bound := new(big.Int).Sub(tr.Mult, big.NewInt(1))
		bits := make([]uint, k)
		for i := 0; i < k; i++ {
			bits[i] = bound.Bit(k - 1 - i)
		}
		eq := make([]int, k)
		free := make([]int, k)
		for i := 0; i < k; i++ {
			eq[i] = out.AddState()
			free[i] = out.AddState()
		}
		out.AddTransitionSym(tr.From, tr.Sym, eq[0])
		next := func(states []int, i int) int {
			if i == k-1 {
				return tr.To
			}
			return states[i+1]
		}
		for i := 0; i < k; i++ {
			if bits[i] == 1 {
				out.AddTransitionSym(eq[i], d0, next(free, i))
				out.AddTransitionSym(eq[i], d1, next(eq, i))
			} else {
				out.AddTransitionSym(eq[i], d0, next(eq, i))
			}
			out.AddTransitionSym(free[i], d0, next(free, i))
			out.AddTransitionSym(free[i], d1, next(free, i))
		}
	}
	return out
}
