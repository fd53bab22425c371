package experiments

import (
	"fmt"
	"time"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/gen"
)

// E10Pipeline compares the two FPRAS pipelines on path queries: the
// general tree pipeline of Theorem 1 (hypertree decomposition →
// augmented NFTA → multipliers → CountNFTA) against the specialized
// string pipeline (Section 3 NFA → string multipliers → CountNFA,
// following footnote 2 of §5.1). Both must agree with the exact oracle;
// the string pipeline skips all tree machinery.
func E10Pipeline(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E10",
		Title:  "Path queries: tree pipeline (Thm 1) vs string pipeline (§3 + §5.1 footnote 2)",
		Anchor: "Section 3; Section 5.1 footnote 2",
		Header: []string{"|Q|", "|D|", "Pr exact", "tree est", "tree time", "string est", "string time", "tree rel.err", "string rel.err"},
	}
	lens := []int{2, 3, 4}
	if o.Quick {
		lens = []int{2, 3}
	}
	for i, n := range lens {
		q := cq.PathQuery("R", n)
		h := gen.SparsePathInstance(q, 2, 1, gen.ProbRandomRational, o.Seed+int64(i))
		want, _ := exact.MustPQE(q, h).Float64()

		start := time.Now()
		tree, errTree := core.PQEEstimate(q, h, core.Options{Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs})
		treeTime := time.Since(start)

		start = time.Now()
		str, errStr := core.PathPQEEstimate(q, h, core.Options{Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs})
		strTime := time.Since(start)

		treeEst, treeErr := "—", "—"
		if errTree == nil {
			treeEst = fmt.Sprintf("%.6f", tree)
			treeErr = relErr(tree, want)
		}
		strEst, strErr := "—", "—"
		if errStr == nil {
			strEst = fmt.Sprintf("%.6f", str)
			strErr = relErr(str, want)
		}
		t.Add(fmt.Sprint(n), fmt.Sprint(h.Size()), fmt.Sprintf("%.6f", want),
			treeEst, ms(treeTime), strEst, ms(strTime), treeErr, strErr)
	}
	t.Note("shape to hold: both pipelines stay within ±%.2f of the oracle; the string pipeline avoids tree machinery on this query class", o.Epsilon)
	return t
}
