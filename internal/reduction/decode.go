package reduction

import (
	"fmt"

	"pqe/internal/nfta"
	"pqe/internal/pdb"
)

// DecodeTree inverts EncodeSubinstance: it reads the presence/absence
// literals off an accepted tree and reconstructs the subinstance mask
// (the surjectivity direction of the Proposition 1 bijection). The
// weighted (Theorem 1) automaton accepts the same trees, so the decoder
// serves both.
//
// Every database fact must occur exactly once, positively or negated;
// anything else means the tree is not in the automaton's language.
func (r *URReduction) DecodeTree(t *nfta.Tree) ([]bool, error) {
	mask := make([]bool, r.DB.Size())
	seen := make([]bool, r.DB.Size())
	var walk func(n *nfta.Tree) error
	walk = func(n *nfta.Tree) error {
		name := r.Symbols.Name(n.Sym)
		factName := name
		negated := false
		if base, ok := nfta.IsNegName(name); ok {
			factName, negated = base, true
		}
		fact, err := pdb.ParseFact(factName)
		if err != nil {
			return fmt.Errorf("reduction: tree label %q is not a fact literal: %v", name, err)
		}
		idx := r.DB.IndexOf(fact)
		if idx < 0 {
			return fmt.Errorf("reduction: tree mentions unknown fact %v", fact)
		}
		if seen[idx] {
			return fmt.Errorf("reduction: fact %v mentioned twice", fact)
		}
		seen[idx] = true
		mask[idx] = !negated
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t); err != nil {
		return nil, err
	}
	for i, s := range seen {
		if !s {
			return nil, fmt.Errorf("reduction: fact %v missing from tree", r.DB.Fact(i))
		}
	}
	return mask, nil
}
