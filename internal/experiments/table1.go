package experiments

import (
	"errors"
	"fmt"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/gen"
)

// Table1 regenerates the paper's Table 1 (the PQE tractability
// landscape) operationally: one representative query per row, each
// classified along the Bounded-HW / Self-Join-Free / Safe axes and
// evaluated with the algorithm the landscape prescribes. The two bold
// cells of the paper (bounded HW + SJF, safe or not ⇒ FPRAS in combined
// complexity) must run and agree with ground truth; the open cells must
// be detected and refused.
func Table1(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "T1",
		Title:  "Tractability landscape for PQE (paper Table 1)",
		Anchor: "Table 1",
		Header: []string{"query", "bounded-HW", "SJF", "safe", "prior (data)", "this work (combined)", "measured", "exact", "status"},
	}

	// Each row pins the algorithm its Table 1 cell prescribes: the safe
	// plan for the safe row, the tree FPRAS for the rest (which refuses
	// the open cells). The auto router would answer these tiny
	// instances by exact lineage counting instead.
	type row struct {
		name     string
		q        *cq.Query
		prior    string
		maxWidth int // 0 = unlimited; a cap simulates "outside the bounded-HW class"
		strategy string
	}
	rows := []row{
		{"star S1(x,y1),S2(x,y2)", cq.StarQuery("S", 2), "FP [10]", 0, "force-safeplan"},
		{"3-path R1..R3", cq.PathQuery("R", 3), "#P-hard [10]", 0, "force-nfta"},
		{"triangle C1..C3 (width 2 allowed)", cq.CycleQuery("C", 3), "#P-hard [10]", 0, "force-nfta"},
		{"triangle C1..C3 (width capped at 1)", cq.CycleQuery("C", 3), "FP if safe [10]", 1, "force-nfta"},
		{"self-join R(x,y),R(y,z)", cq.MustParse("R(x,y), R(y,z)"), "depends [11]", 0, "force-nfta"},
	}

	for _, r := range rows {
		class := core.Classify(r.q, r.maxWidth)
		// Domain size 2 keeps random instances dense enough that joins
		// actually occur and the probabilities are non-degenerate.
		h := gen.Instance(r.q, gen.Config{
			FactsPerRelation: 3, DomainSize: 2,
			Model: gen.ProbRandomRational, Seed: o.Seed,
		})
		var measured, status, ours string
		res, err := core.Evaluate(r.q, h, core.Options{
			Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs, MaxWidth: r.maxWidth, Strategy: r.strategy,
		})
		switch {
		case err == nil:
			ours = string(res.Method)
			measured = fmt.Sprintf("%.6f", res.Probability)
		case errors.Is(err, core.ErrUnsupported):
			ours = "open"
			measured = "—"
		default:
			ours = "error"
			measured = err.Error()
		}
		exactStr := "—"
		if err == nil && h.Size() <= 18 {
			want, _ := exact.MustPQE(r.q, h).Float64()
			exactStr = fmt.Sprintf("%.6f", want)
			switch {
			case res.Exact && closeTo(res.Probability, want, 1e-9):
				status = "ok (exact)"
			case !res.Exact && withinFactor(res.Probability, want, 0.3):
				status = "ok (within ε-envelope)"
			default:
				status = "MISMATCH"
			}
		} else if errors.Is(err, core.ErrUnsupported) {
			status = "ok (correctly refused)"
		}
		t.Add(r.name,
			fmt.Sprintf("%v (w=%d)", class.BoundedHW, class.Width),
			fmt.Sprintf("%v", class.SelfJoinFree),
			fmt.Sprintf("%v", class.Safe),
			r.prior, ours, measured, exactStr, status)
	}
	t.Note("rows 1–3 realize the paper's bold cells (safe ⇒ exact safe plan; unsafe bounded-HW SJF " +
		"⇒ FPRAS, combined complexity); rows 4–5 exercise the open cells (width above the cap, self-joins), " +
		"which must be detected and refused")
	return t
}

func closeTo(a, b, tol float64) bool {
	d := a - b
	return d < tol && d > -tol
}

func withinFactor(a, b, f float64) bool {
	if b == 0 {
		return a == 0
	}
	r := a/b - 1
	return r < f && r > -f
}
