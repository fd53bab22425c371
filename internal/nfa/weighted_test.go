package nfa_test

import (
	"math/big"
	"math/rand"
	"testing"

	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/nfa"
	"pqe/internal/nfta"
	"pqe/internal/pdb"
	"pqe/internal/reduction"
)

// rationalPathInstance draws a small path instance whose probabilities
// are random rationals with denominators up to 6, one in five 0 or 1.
func rationalPathInstance(rng *rand.Rand, q *cq.Query) *pdb.Probabilistic {
	h := pdb.Empty()
	// Layered constants (x_l ∈ {a_l, b_l}) make most draws join.
	at := func(l int) string { return string(rune('a'+rng.Intn(2))) + string(rune('0'+l)) }
	for l, atom := range q.Atoms {
		for i := 0; i < 2+rng.Intn(2); i++ {
			den := int64(2 + rng.Intn(5))
			p := pdb.NewProb(1+rng.Int63n(den-1), den)
			if rng.Intn(5) == 0 {
				p = pdb.NewProb(rng.Int63n(2), 1)
			}
			h.Add(pdb.NewFact(atom.Relation, at(l), at(l+1)), p)
		}
	}
	return h
}

// gadgetExpansion is the Section 5.1 construction the weights stand in
// for: every transition of base gets a comparator accepting exactly its
// fact literal's multiplier many digit strings, of width Kᵢ shared by
// the fact's two literals. It returns the expanded automaton and the
// word length |D| + Σ Kᵢ it is counted at.
func gadgetExpansion(t *testing.T, base *nfa.NFA, h *pdb.Probabilistic) (*nfa.NFA, int) {
	t.Helper()
	d := h.DB()
	mults := make(map[int]*big.Int)
	digits := make(map[int]int)
	n := d.Size()
	for i, f := range d.Facts() {
		p := h.ProbAt(i)
		pos, neg := p.Num(), new(big.Int).Sub(p.Den(), p.Num())
		k := max(nfta.DigitsFor(pos), nfta.DigitsFor(neg))
		n += k
		for sym, name := range base.Symbols.Names() {
			fact, negated := nfta.IsNegName(name)
			if !negated {
				fact = name
			}
			if fact != f.Key() {
				continue
			}
			mults[sym], digits[sym] = pos, k
			if negated {
				mults[sym] = neg
			}
		}
	}
	g := nfa.NewMultNFA(base.Symbols)
	for i := 0; i < base.NumStates(); i++ {
		g.AddState()
	}
	g.SetInitial(base.Initial()...)
	g.SetFinal(base.Finals()...)
	base.EachTransition(func(from, sym, to int) {
		if err := g.AddTransition(from, sym, mults[sym], digits[sym], to); err != nil {
			t.Fatal(err)
		}
	})
	return g.Translate(), n
}

// TestWeightedPathMatchesGadget: on small rational path instances,
// p ∈ {0, 1} included, the weighted exact count of the Section 3
// automaton at |D| equals the plain exact count of its gadget expansion
// at |D| + Σ Kᵢ, and both equal Pr_H(Q) · ∏ dᵢ.
func TestWeightedPathMatchesGadget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nonzero := 0
	for trial := 0; trial < 16; trial++ {
		q := cq.PathQuery("R", 2+trial%2)
		h := rationalPathInstance(rng, q)
		red, err := reduction.BuildPathPQE(q, h)
		if err != nil {
			t.Fatal(err)
		}
		weighted := nfa.ExactCount(red.Auto, red.WordSize)
		if weighted.Sign() > 0 {
			nonzero++
		}
		if got := nfa.ExactCount(red.Auto.Trim(), red.WordSize); got.Cmp(weighted) != 0 {
			t.Errorf("trial %d: trimming the weighted automaton changed its count %v to %v", trial, weighted, got)
		}
		gadget, n := gadgetExpansion(t, red.Base, h)
		if got := nfa.ExactCount(gadget, n); got.Cmp(weighted) != 0 {
			t.Errorf("trial %d: gadget count %v at length %d, weighted count %v at %d\nH=%s", trial, got, n, weighted, red.WordSize, h)
		}
		want := exact.MustPQE(q, h)
		if got := new(big.Rat).SetFrac(weighted, red.DenProduct); got.Cmp(want) != 0 {
			t.Errorf("trial %d: weighted count / ∏dᵢ = %v, want %v\nH=%s", trial, got, want, h)
		}
	}
	if nonzero < 8 {
		t.Errorf("only %d of 16 instances satisfy the query", nonzero)
	}
}

// TestWeightedHalfIsBase: with every probability ½ every weight is 1,
// so the weighting returns the base automaton itself.
func TestWeightedHalfIsBase(t *testing.T) {
	q := cq.PathQuery("R", 2)
	h := pdb.Empty()
	h.Add(pdb.NewFact("R1", "a", "b"), pdb.ProbHalf)
	h.Add(pdb.NewFact("R2", "b", "c"), pdb.ProbHalf)
	red, err := reduction.BuildPathPQE(q, h)
	if err != nil {
		t.Fatal(err)
	}
	if red.Auto != red.Base {
		t.Error("all-½ weighting built a new automaton")
	}
}
