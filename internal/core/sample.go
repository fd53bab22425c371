package core

import (
	"math/rand"

	"pqe/internal/cq"
	"pqe/internal/pdb"
)

// SampleSatisfying draws a near-uniform satisfying subinstance of D for
// Q (a "possible world" conditioned on the query holding), using the
// uniform-generation facet of the CountNFTA machinery: a near-uniform
// accepted tree of the Proposition 1 automaton is sampled and decoded
// back through the bijection. Facts over relations outside the query
// are included independently with probability ½ (they are free in the
// uniform-reliability distribution).
//
// It returns nil with no error when no satisfying subinstance exists.
// One-shot wrapper over Estimator.SampleSatisfying; reuse an Estimator
// to amortize the automaton construction over many draws.
func SampleSatisfying(q *cq.Query, d *pdb.Database, opts Options) ([]bool, error) {
	mask, _, err := NewUREstimator(q, d, opts).SampleSatisfying(opts)
	return mask, err
}

// SampleWorld draws a possible world of the probabilistic database
// conditioned on Q being satisfied, approximately according to the
// conditional distribution Pr_H(· | Q): an accepted tree of the
// weighted (Theorem 1) automaton is sampled near-uniformly — the
// multiplier gadgets replicate each subinstance's trees proportionally
// to its weight, so a near-uniform tree is a near-conditionally-
// distributed world — and decoded. Facts over relations outside the
// query are included independently with their own probabilities (they
// are independent of the conditioning event).
//
// It returns nil with no error when Pr_H(Q) = 0.
func SampleWorld(q *cq.Query, h *pdb.Probabilistic, opts Options) ([]bool, error) {
	mask, _, err := NewEstimator(q, h, opts).SampleWorld(opts)
	return mask, err
}

// liftMask expands a mask over the projected database to a mask over
// the full database, drawing each free (projected-away) fact with the
// supplied coin.
func liftMask(full, proj *pdb.Database, projMask []bool, coin func(pdb.Fact) bool) []bool {
	mask := make([]bool, full.Size())
	for i, f := range full.Facts() {
		if j := proj.IndexOf(f); j >= 0 {
			mask[i] = projMask[j]
		} else {
			mask[i] = coin(f)
		}
	}
	return mask
}

func (o Options) rng() *rand.Rand {
	return rand.New(rand.NewSource(o.seed() + 0x9e3779b9))
}
