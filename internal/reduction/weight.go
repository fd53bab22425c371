package reduction

import (
	"fmt"
	"math/big"

	"pqe/internal/alphabet"
	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/hypertree"
	"pqe/internal/nfta"
	"pqe/internal/pdb"
)

// PQEReduction is the output of the Theorem 1 (Section 5.2)
// construction: the uniform-reliability automaton with every positive
// fact symbol weighted wᵢ and every negated one dᵢ−wᵢ (with
// π(fᵢ) = wᵢ/dᵢ), so that under that weight
//
//	|L_TreeSize(Auto)| = Σ_{D' ⊨ Q} ∏_{f∈D'} wᵢ ∏_{f∉D'} (dᵢ−wᵢ)
//
// and hence Pr_H(Q) = |L_TreeSize(Auto)| / DenProduct. The paper's
// multiplier gadgets (Section 5.1) encode the same count in an
// unweighted automaton with Kᵢ digit nodes per fact; the weights stand
// in for them because a multiplier depends only on its fact symbol,
// never on the state (DESIGN.md §5).
type PQEReduction struct {
	UR         *URReduction
	Auto       *nfta.NFTA // UR.Auto weighted by the fact multipliers
	TreeSize   int        // |D|
	DenProduct *big.Int   // d = ∏ᵢ dᵢ
	// DigitBudget[i] is Kᵢ = max(u(wᵢ), u(dᵢ−wᵢ)) for the i-th fact: the
	// digit nodes the Section 5.1 gadget would add to every accepted
	// tree for it (one width for the positive and negated transitions,
	// so all accepted trees have equal size). Explain reports it.
	DigitBudget []int
}

// BuildPQE runs the full Theorem 1 reduction for a self-join-free query
// of bounded hypertree width and a probabilistic database defined only
// over the query's relations.
func BuildPQE(q *cq.Query, h *pdb.Probabilistic, dec *hypertree.Decomposition) (*PQEReduction, error) {
	ur, err := BuildUR(q, h.DB(), dec)
	if err != nil {
		return nil, err
	}
	return WeightUR(ur, h)
}

// WeightUR weights an existing uniform-reliability reduction by the
// facts' probability multipliers.
func WeightUR(ur *URReduction, h *pdb.Probabilistic) (*PQEReduction, error) {
	d := ur.DB
	if h.DB() != d {
		// Allow a different instance as long as it has the same facts.
		if h.Size() != d.Size() {
			return nil, fmt.Errorf("reduction: probabilistic instance has %d facts, automaton built for %d", h.Size(), d.Size())
		}
		for _, f := range d.Facts() {
			if h.DB().IndexOf(f) < 0 {
				return nil, fmt.Errorf("reduction: fact %v missing from probabilistic instance", f)
			}
		}
	}
	w, den, budgets, err := factWeights(ur.Symbols, d, h)
	if err != nil {
		return nil, err
	}
	return &PQEReduction{
		UR:          ur,
		Auto:        ur.Auto.Weighted(w),
		TreeSize:    d.Size(),
		DenProduct:  den,
		DigitBudget: budgets,
	}, nil
}

// factWeights returns the per-symbol weights of an automaton over d's
// fact literals under h's probabilities π(fᵢ) = wᵢ/dᵢ: wᵢ on fact i's
// symbol and dᵢ−wᵢ on its negation, as efloats (exact below 2^53). It
// also returns ∏ dᵢ and each fact's digit budget Kᵢ. Every interned
// symbol must name a literal of a fact of d.
func factWeights(symbols *alphabet.Interner, d *pdb.Database, h *pdb.Probabilistic) ([]efloat.E, *big.Int, []int, error) {
	pos := make([]efloat.E, d.Size())
	neg := make([]efloat.E, d.Size())
	budgets := make([]int, d.Size())
	den := big.NewInt(1)
	for i, f := range d.Facts() {
		p := h.Prob(f)
		negMult := new(big.Int).Sub(p.Den(), p.Num())
		pos[i], neg[i] = efloat.FromBigInt(p.Num()), efloat.FromBigInt(negMult)
		budgets[i] = max(nfta.DigitsFor(p.Num()), nfta.DigitsFor(negMult))
		den.Mul(den, p.Den())
	}
	resolved := resolveFactSymbols(symbols, d)
	w := make([]efloat.E, len(resolved))
	for sym, r := range resolved {
		switch {
		case r < 0:
			return nil, nil, nil, factSymbolError(symbols, sym)
		case r&1 == 1:
			w[sym] = neg[r>>1]
		default:
			w[sym] = pos[r>>1]
		}
	}
	return w, den, budgets, nil
}

// resolveFactSymbols maps every interned symbol to its fact's database
// position: resolved[sym] = 2·index | neg, or -1 when the symbol does
// not name a fact of d (factSymbolError says why). Symbol names produced by the
// reductions are canonical fact keys, so resolution is one map lookup
// per symbol instead of a fact-literal parse per transition.
func resolveFactSymbols(symbols *alphabet.Interner, d *pdb.Database) []int32 {
	names := symbols.Names()
	resolved := make([]int32, len(names))
	for id, name := range names {
		factName := name
		var neg int32
		if base, ok := nfta.IsNegName(name); ok {
			factName, neg = base, 1
		}
		if i := d.IndexOfKey(factName); i >= 0 {
			resolved[id] = int32(i)<<1 | neg
		} else {
			resolved[id] = -1
		}
	}
	return resolved
}

// factSymbolError reconstructs the precise failure for a transition
// symbol that resolveFactSymbols could not map to a database fact.
func factSymbolError(symbols *alphabet.Interner, sym int) error {
	name := symbols.Name(sym)
	factName := name
	if base, ok := nfta.IsNegName(name); ok {
		factName = base
	}
	fact, err := pdb.ParseFact(factName)
	if err != nil {
		return fmt.Errorf("reduction: transition symbol %q is not a fact literal: %v", name, err)
	}
	return fmt.Errorf("reduction: transition fact %v not in database", fact)
}
