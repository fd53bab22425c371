package reduction

import (
	"math/big"

	"pqe/internal/cq"
	"pqe/internal/nfa"
	"pqe/internal/pdb"
)

// PathPQEReduction is the string-automaton analogue of PQEReduction for
// self-join-free path queries: the Section 3 NFA weighted by every fact
// literal's multiplier. The total weight of the words of length
// WordSize = |D| equals Σ_{D' ⊨ Q} ∏_{f∈D'} wᵢ ∏_{f∉D'} (dᵢ−wᵢ), so
// Pr_H(Q) = |L_WordSize(Auto)| / DenProduct under that weight.
//
// For path queries this pipeline avoids tree machinery entirely and is
// the basis of the E10 ablation (string vs tree pipeline).
type PathPQEReduction struct {
	Query      *cq.Query
	H          *pdb.Probabilistic
	Base       *nfa.NFA // the unweighted Section 3 automaton
	Auto       *nfa.NFA // Base weighted by the fact multipliers
	WordSize   int      // |D|
	DenProduct *big.Int
}

// BuildPathPQE runs the path-query PQE reduction for a probabilistic
// database defined only over the query's (binary) relations.
func BuildPathPQE(q *cq.Query, h *pdb.Probabilistic) (*PathPQEReduction, error) {
	base, err := PathNFA(q, h.DB())
	if err != nil {
		return nil, err
	}
	return WeightPathNFA(q, h, base.Trim())
}

// WeightPathNFA weights an already-built Section 3 base automaton by
// the facts' probability multipliers (see factWeights). The base may
// have been built over a different database instance as long as it
// holds the same facts (transition symbols name facts, which are looked
// up by value), which is what lets a cached base be re-weighted when
// only probabilities change.
func WeightPathNFA(q *cq.Query, h *pdb.Probabilistic, base *nfa.NFA) (*PathPQEReduction, error) {
	w, den, _, err := factWeights(base.Symbols, h.DB(), h)
	if err != nil {
		return nil, err
	}
	return &PathPQEReduction{
		Query:      q,
		H:          h,
		Base:       base,
		Auto:       base.Weighted(w),
		WordSize:   h.Size(),
		DenProduct: den,
	}, nil
}
