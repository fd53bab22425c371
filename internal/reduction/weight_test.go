package reduction

import (
	"math/big"
	"math/rand"
	"testing"

	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/hypertree"
	"pqe/internal/nfta"
	"pqe/internal/pdb"
)

// rationalInstance draws a small instance for q whose probabilities are
// random rationals with denominators up to 6, one in five 0 or 1. Each
// variable ranges over two constants of its own, so most draws join.
func rationalInstance(rng *rand.Rand, q *cq.Query) *pdb.Probabilistic {
	h := pdb.Empty()
	for _, atom := range q.Atoms {
		for i := 0; i < 2+rng.Intn(2); i++ {
			args := make([]string, len(atom.Vars))
			for j, v := range atom.Vars {
				args[j] = v + string(rune('0'+rng.Intn(2)))
			}
			den := int64(2 + rng.Intn(5))
			p := pdb.NewProb(1+rng.Int63n(den-1), den)
			if rng.Intn(5) == 0 {
				p = pdb.NewProb(rng.Int63n(2), 1)
			}
			h.Add(pdb.NewFact(atom.Relation, args...), p)
		}
	}
	return h
}

// TestWeightedTreeMatchesGadget: on small rational instances, p ∈ {0, 1}
// included, the weighted exact count of the uniform-reliability
// automaton at |D| equals the plain exact count of its Section 5.1
// gadget expansion at |D| + Σ Kᵢ, and both equal Pr_H(Q) · ∏ dᵢ.
func TestWeightedTreeMatchesGadget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := []*cq.Query{cq.PathQuery("R", 2), cq.StarQuery("S", 2), cq.CycleQuery("C", 3)}
	nonzero := 0
	for trial := 0; trial < 12; trial++ {
		q := queries[trial%len(queries)]
		h := rationalInstance(rng, q)
		dec, err := hypertree.Decompose(q)
		if err != nil {
			t.Fatal(err)
		}
		red, err := BuildPQE(q, h, dec)
		if err != nil {
			t.Fatal(err)
		}
		weighted := nfta.ExactCountDet(red.Auto, red.TreeSize)
		if weighted.Sign() > 0 {
			nonzero++
		}
		if got := nfta.ExactCountDet(red.Auto.Trim(), red.TreeSize); got.Cmp(weighted) != 0 {
			t.Errorf("trial %d: trimming the weighted automaton changed its count %v to %v", trial, weighted, got)
		}

		// The gadget expansion of the same automaton.
		resolved := resolveFactSymbols(red.UR.Symbols, h.DB())
		g := nfta.NewMult(red.UR.Symbols)
		for i := 0; i < red.UR.Auto.NumStates(); i++ {
			g.AddState()
		}
		g.SetInitial(red.UR.Auto.Initial())
		n := h.Size()
		for _, k := range red.DigitBudget {
			n += k
		}
		for _, tr := range red.UR.Auto.Transitions() {
			r := resolved[tr.Sym]
			p := h.ProbAt(int(r >> 1))
			mult := p.Num()
			if r&1 == 1 {
				mult = new(big.Int).Sub(p.Den(), p.Num())
			}
			if err := g.AddTransition(tr.From, tr.Sym, mult, red.DigitBudget[r>>1], tr.Children...); err != nil {
				t.Fatal(err)
			}
		}
		expanded, err := g.Translate()
		if err != nil {
			t.Fatal(err)
		}
		if got := nfta.ExactCountDet(expanded.Trim(), n); got.Cmp(weighted) != 0 {
			t.Errorf("trial %d: gadget count %v at size %d, weighted count %v at %d\nQ=%s\nH=%s", trial, got, n, weighted, red.TreeSize, q, h)
		}
		want := exact.MustPQE(q, h)
		if got := new(big.Rat).SetFrac(weighted, red.DenProduct); got.Cmp(want) != 0 {
			t.Errorf("trial %d: weighted count / ∏dᵢ = %v, want %v\nQ=%s\nH=%s", trial, got, want, q, h)
		}
	}
	if nonzero < 6 {
		t.Errorf("only %d of 12 instances satisfy the query", nonzero)
	}
}

// TestWeightURHalfIsBase: with every probability ½ every weight is 1,
// so the weighting returns the uniform-reliability automaton itself.
func TestWeightURHalfIsBase(t *testing.T) {
	q := cq.PathQuery("R", 2)
	h := pdb.Empty()
	h.Add(pdb.NewFact("R1", "a", "b"), pdb.ProbHalf)
	h.Add(pdb.NewFact("R2", "b", "c"), pdb.ProbHalf)
	dec, err := hypertree.Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	red, err := BuildPQE(q, h, dec)
	if err != nil {
		t.Fatal(err)
	}
	if red.Auto != red.UR.Auto || red.TreeSize != h.Size() {
		t.Errorf("all-½ weighting: new automaton %v, tree size %d for %d facts", red.Auto != red.UR.Auto, red.TreeSize, h.Size())
	}
}
