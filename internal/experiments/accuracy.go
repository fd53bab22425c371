package experiments

import (
	"fmt"
	"math/big"
	"time"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/gen"
	"pqe/internal/hypertree"
	"pqe/internal/pdb"
	"pqe/internal/reduction"
	"pqe/internal/safeplan"
)

// E2Path validates Theorem 2: PathEstimate approximates UR(Q, D) for
// self-join-free path queries within (1±ε), with runtime recorded per
// (query length, database size).
func E2Path(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E2",
		Title:  "PathEstimate accuracy on uniform reliability (Theorem 2)",
		Anchor: "Theorem 2, Section 3",
		Header: []string{"|Q|", "|D|", "UR exact", "UR estimate", "rel.err", "time"},
	}
	lens := []int{2, 3, 4, 5}
	if o.Quick {
		lens = []int{2, 3}
	}
	for i, n := range lens {
		q := cq.PathQuery("R", n)
		h := gen.SparsePathInstance(q, 2, 1, gen.ProbHalf, o.Seed+int64(i))
		d := h.DB()
		want, _ := new(big.Float).SetInt(exact.MustUR(q, d)).Float64()
		start := time.Now()
		got, err := core.PathEstimate(q, d, core.Options{Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs})
		elapsed := time.Since(start)
		if err != nil {
			t.Add(fmt.Sprint(n), fmt.Sprint(d.Size()), "—", "error: "+err.Error(), "—", "—")
			continue
		}
		t.Add(fmt.Sprint(n), fmt.Sprint(d.Size()),
			fmt.Sprintf("%.0f", want), fmt.Sprintf("%.2f", got.Float()),
			relErr(got.Float(), want), ms(elapsed))
	}
	t.Note("shape to hold: rel.err within ±ε = ±%.2f for every row", o.Epsilon)
	return t
}

// E3UR validates Theorem 3: UREstimate via the augmented-NFTA pipeline,
// on acyclic and width-2 cyclic queries.
func E3UR(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E3",
		Title:  "UREstimate accuracy (Theorem 3, Proposition 1 pipeline)",
		Anchor: "Theorem 3, Section 4",
		Header: []string{"query", "width", "|D|", "UR exact", "UR estimate", "rel.err", "time"},
	}
	queries := []*cq.Query{
		cq.PathQuery("R", 3),
		cq.StarQuery("S", 3),
		cq.MustParse("R1(x,y), R2(y,z), R3(y,w)"),
		cq.CycleQuery("C", 3),
		cq.SnowflakeQuery("F", 2, 1),
	}
	if o.Quick {
		queries = queries[:2]
	}
	for i, q := range queries {
		class := core.Classify(q, 0)
		var h *pdb.Probabilistic
		if i == 4 {
			h = gen.SnowflakeInstance(q, 2, 1, gen.ProbHalf, o.Seed)
		} else {
			h = gen.Instance(q, gen.Config{FactsPerRelation: 3, DomainSize: 3, Seed: o.Seed + int64(i)})
		}
		d := h.DB()
		want, _ := new(big.Float).SetInt(exact.MustUR(q, d)).Float64()
		start := time.Now()
		got, err := core.UREstimate(q, d, core.Options{Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs})
		elapsed := time.Since(start)
		if err != nil {
			t.Add(q.String(), fmt.Sprint(class.Width), fmt.Sprint(d.Size()), "—", "error: "+err.Error(), "—", "—")
			continue
		}
		t.Add(q.String(), fmt.Sprint(class.Width), fmt.Sprint(d.Size()),
			fmt.Sprintf("%.0f", want), fmt.Sprintf("%.2f", got.Float()),
			relErr(got.Float(), want), ms(elapsed))
	}
	t.Note("covers width-1 (acyclic), width-2 (triangle) and snowflake-shaped queries; rel.err within ±%.2f", o.Epsilon)
	return t
}

// E4PQE validates Theorem 1: PQEEstimate with general rational
// probabilities (the multiplier weights) against the exact oracle.
func E4PQE(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E4",
		Title:  "PQEEstimate accuracy with rational probabilities (Theorem 1)",
		Anchor: "Theorem 1, Section 5",
		Header: []string{"query", "|D|", "gadget tree size", "Pr exact", "Pr estimate", "rel.err", "time"},
	}
	queries := []*cq.Query{
		cq.PathQuery("R", 2),
		cq.PathQuery("R", 3),
		cq.StarQuery("S", 2),
		cq.CycleQuery("C", 3),
	}
	if o.Quick {
		queries = queries[:2]
	}
	for i, q := range queries {
		h := gen.Instance(q, gen.Config{
			FactsPerRelation: 3, DomainSize: 2,
			Model: gen.ProbRandomRational, Seed: o.Seed + int64(i),
		})
		want, _ := exact.MustPQE(q, h).Float64()
		treeSize := "—"
		if dec, err := hypertree.Decompose(q); err == nil {
			if red, err := reduction.BuildPQE(q, h, dec); err == nil {
				n := red.TreeSize
				for _, k := range red.DigitBudget {
					n += k
				}
				treeSize = fmt.Sprint(n)
			}
		}
		start := time.Now()
		got, err := core.PQEEstimate(q, h, core.Options{Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs})
		elapsed := time.Since(start)
		if err != nil {
			t.Add(q.String(), fmt.Sprint(h.Size()), treeSize, "—", "error: "+err.Error(), "—", "—")
			continue
		}
		t.Add(q.String(), fmt.Sprint(h.Size()), treeSize,
			fmt.Sprintf("%.6f", want), fmt.Sprintf("%.6f", got),
			relErr(got, want), ms(elapsed))
	}
	t.Note("symbol weights make the weighted count of accepted trees of size |D| proportional to subinstance weights, the count the §5.1 gadgets reach at the gadget tree size; rel.err within ±%.2f", o.Epsilon)
	return t
}

// E9Safe validates Table 1 row 1: the Dalvi–Suciu safe plan is exact on
// hierarchical queries, and the FPRAS agrees within ε when forced.
func E9Safe(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E9",
		Title:  "Safe queries: exact safe plan vs forced FPRAS",
		Anchor: "Table 1 row 1; Dalvi–Suciu [10]",
		Header: []string{"query", "|D|", "safe plan", "brute force", "FPRAS", "plan==bf", "fpras rel.err"},
	}
	sizes := []int{2, 3, 4}
	if o.Quick {
		sizes = []int{2}
	}
	for i, n := range sizes {
		q := cq.StarQuery("S", n)
		h := gen.Instance(q, gen.Config{
			FactsPerRelation: 3, DomainSize: 3,
			Model: gen.ProbRandomRational, Seed: o.Seed + int64(i),
		})
		plan, err := safeplan.Evaluate(q, h)
		if err != nil {
			t.Add(q.String(), fmt.Sprint(h.Size()), "error: "+err.Error(), "—", "—", "—", "—")
			continue
		}
		planF, _ := plan.Float64()
		bf, _ := exact.MustPQE(q, h).Float64()
		fpras, err := core.PQEEstimate(q, h, core.Options{Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs})
		fprasStr := "—"
		fprasErr := "—"
		if err == nil {
			fprasStr = fmt.Sprintf("%.6f", fpras)
			fprasErr = relErr(fpras, bf)
		}
		t.Add(q.String(), fmt.Sprint(h.Size()),
			fmt.Sprintf("%.6f", planF), fmt.Sprintf("%.6f", bf), fprasStr,
			fmt.Sprintf("%v", closeTo(planF, bf, 1e-12)), fprasErr)
	}
	t.Note("the safe plan must match brute force to machine precision (it is exact over rationals)")
	return t
}
