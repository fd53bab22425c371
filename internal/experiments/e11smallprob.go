package experiments

import (
	"fmt"
	"time"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/montecarlo"
	"pqe/internal/pdb"
)

// E11SmallProb contrasts the FPRAS's *relative* (1±ε) guarantee with
// naive Monte Carlo's *additive* one on queries of shrinking
// probability: with a fixed sample budget MC collapses to estimating 0
// once Pr(Q) drops below ≈ 1/samples, while the FPRAS keeps its
// relative accuracy — the reason approximation *schemes* (not plain
// sampling) are the right target for PQE.
func E11SmallProb(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E11",
		Title:  "Small probabilities: naive Monte Carlo vs the FPRAS",
		Anchor: "FPRAS definition (relative guarantee), Theorem 1",
		Header: []string{"Pr exact", "MC estimate", "MC rel.err", "MC time", "FPRAS estimate", "FPRAS rel.err", "FPRAS time"},
	}
	// Chain of two facts, each with probability 1/den: Pr = 1/den².
	dens := []int64{4, 16, 64, 256}
	if o.Quick {
		dens = []int64{4, 64}
	}
	const mcSamples = 2000
	for _, den := range dens {
		q := cq.PathQuery("R", 2)
		h := pdb.Empty()
		h.Add(pdb.NewFact("R1", "a", "b"), pdb.NewProb(1, den))
		h.Add(pdb.NewFact("R2", "b", "c"), pdb.NewProb(1, den))
		want, _ := exact.MustPQE(q, h).Float64()

		start := time.Now()
		mc := montecarlo.Estimate(q, h, montecarlo.Options{Samples: mcSamples, Seed: o.Seed})
		mcTime := time.Since(start)

		start = time.Now()
		fpras, err := core.PQEEstimate(q, h, core.Options{Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs})
		fprasTime := time.Since(start)
		fprasStr, fprasErr := "—", "—"
		if err == nil {
			fprasStr = fmt.Sprintf("%.3e", fpras)
			fprasErr = relErr(fpras, want)
		}
		t.Add(fmt.Sprintf("%.3e", want),
			fmt.Sprintf("%.3e", mc), relErr(mc, want), ms(mcTime),
			fprasStr, fprasErr, ms(fprasTime))
	}
	t.Note("MC uses a fixed budget of %d samples: once Pr < 1/samples its estimate is usually 0 (rel.err −1); the FPRAS keeps rel.err within ±%.2f at every scale", mcSamples, o.Epsilon)
	return t
}
