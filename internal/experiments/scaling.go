package experiments

import (
	"fmt"
	"time"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/gen"
	"pqe/internal/hypertree"
	"pqe/internal/lineage"
	"pqe/internal/reduction"
)

// E5Lineage measures the Section 1.1 claim head-on: over layered
// databases the DNF lineage of the path query Q_i has width^(i+1)
// clauses (Θ(|D|^i) in general), while the automaton of Proposition 1
// stays polynomial. This is the crossover that makes the intensional
// approach collapse and the paper's reduction survive.
func E5Lineage(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E5",
		Title:  "Lineage blow-up vs automaton size on 3Path (Corollary 1)",
		Anchor: "Section 1.1; Corollary 1",
		Header: []string{"i (query len)", "|D|", "lineage clauses", "lineage literals", "NFTA states", "NFTA transitions", "clauses/transitions"},
	}
	width := 3
	lens := []int{2, 3, 4, 5, 6, 7}
	if o.Quick {
		lens = []int{2, 3, 4}
	}
	for _, i := range lens {
		q := cq.PathQuery("R", i)
		h := gen.LayeredPathInstance(q, width, gen.ProbHalf, o.Seed)
		d := h.DB()
		dnf, err := lineage.Compute(q, d, 5_000_000)
		clauses, literals := "overflow", "overflow"
		clausesN := -1
		if err == nil {
			clauses = fmt.Sprint(dnf.NumClauses())
			literals = fmt.Sprint(dnf.Size())
			clausesN = dnf.NumClauses()
		}
		dec, err := hypertree.Decompose(q)
		if err != nil {
			t.Add(fmt.Sprint(i), fmt.Sprint(d.Size()), clauses, literals, "—", "—", "—")
			continue
		}
		red, err := reduction.BuildUR(q, d, dec)
		if err != nil {
			t.Add(fmt.Sprint(i), fmt.Sprint(d.Size()), clauses, literals, "—", "—", "—")
			continue
		}
		ratio := "—"
		if clausesN > 0 {
			ratio = fmt.Sprintf("%.2f", float64(clausesN)/float64(red.Auto.NumTransitions()))
		}
		t.Add(fmt.Sprint(i), fmt.Sprint(d.Size()), clauses, literals,
			fmt.Sprint(red.Auto.NumStates()), fmt.Sprint(red.Auto.NumTransitions()), ratio)
	}
	t.Note("shape to hold: clauses grow as %d^(i+1) (exponential in i); automaton size grows polynomially, so the ratio diverges", width)
	return t
}

// E6ScaleDB sweeps the database size for a fixed query and records the
// end-to-end FPRAS runtime, which Theorem 1 bounds polynomially in |D|.
func E6ScaleDB(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E6",
		Title:  "FPRAS runtime scaling in database size (fixed Q = 3-path)",
		Anchor: "Theorem 1 runtime: poly(|Q|, |H|, 1/ε)",
		Header: []string{"|D|", "build time", "count time", "total", "estimate"},
	}
	q := cq.PathQuery("R", 3)
	chains := []int{2, 4, 8, 12, 16}
	if o.Quick {
		chains = []int{2, 4}
	}
	dec, err := hypertree.Decompose(q)
	if err != nil {
		t.Note("decompose failed: %v", err)
		return t
	}
	for _, c := range chains {
		h := gen.SparsePathInstance(q, c, 2, gen.ProbHalf, o.Seed)
		d := h.DB()
		start := time.Now()
		red, err := reduction.BuildUR(q, d, dec)
		buildTime := time.Since(start)
		if err != nil {
			t.Add(fmt.Sprint(d.Size()), "error: "+err.Error(), "—", "—", "—")
			continue
		}
		start = time.Now()
		got, err := core.UREstimate(q, d, core.Options{Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs})
		countTime := time.Since(start)
		if err != nil {
			t.Add(fmt.Sprint(d.Size()), ms(buildTime), "error: "+err.Error(), "—", "—")
			continue
		}
		t.Add(fmt.Sprint(d.Size()), ms(buildTime), ms(countTime), ms(buildTime+countTime), got.String())
		_ = red
	}
	t.Note("shape to hold: runtime grows polynomially (no exponential wall) as |D| grows")
	return t
}

// E7ScaleEps sweeps ε for a fixed instance and records runtime and the
// measured error against the exact oracle: runtime must grow
// polynomially as ε shrinks, and the measured error must stay inside
// the shrinking envelope.
func E7ScaleEps(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E7",
		Title:  "FPRAS runtime and error vs ε (fixed Q, D)",
		Anchor: "Theorem 1 runtime: poly(1/ε); FPRAS guarantee (1±ε)",
		Header: []string{"ε", "time", "Pr estimate", "Pr exact", "rel.err", "within ±ε"},
	}
	// A layered instance has many witnesses per relation, so the
	// counting unions genuinely overlap and the ε-dependent sampling
	// effort is exercised (on overlap-free instances the estimator's
	// unions are exact and ε barely affects runtime).
	q := cq.PathQuery("R", 3)
	h := gen.LayeredPathInstance(q, 2, gen.ProbRandomRational, o.Seed)
	want, _ := exact.MustPQE(q, h).Float64()
	epss := []float64{0.5, 0.3, 0.2, 0.1, 0.05}
	if o.Quick {
		epss = []float64{0.3, 0.1}
	}
	for _, eps := range epss {
		start := time.Now()
		got, err := core.PQEEstimate(q, h, core.Options{Epsilon: eps, Seed: o.Seed, MaxProcs: o.MaxProcs})
		elapsed := time.Since(start)
		if err != nil {
			t.Add(fmt.Sprint(eps), "error: "+err.Error(), "—", "—", "—", "—")
			continue
		}
		within := "—"
		if want > 0 {
			r := got/want - 1
			within = fmt.Sprintf("%v", r <= eps && r >= -eps)
		}
		t.Add(fmt.Sprintf("%.2f", eps), ms(elapsed),
			fmt.Sprintf("%.6f", got), fmt.Sprintf("%.6f", want),
			relErr(got, want), within)
	}
	t.Note("shape to hold: time grows as ε shrinks (poly in 1/ε); measured error within the envelope")
	return t
}

// E8KarpLuby compares the intensional baseline (Karp–Luby over the DNF
// lineage) with the combined-complexity FPRAS as the query grows. The
// baseline's per-sample cost is linear in the lineage, which explodes
// with i; the FPRAS cost tracks the polynomial automaton size.
func E8KarpLuby(o Opts) *Table {
	o = o.withDefaults()
	t := &Table{
		ID:     "E8",
		Title:  "Intensional baseline (Karp–Luby on lineage) vs combined FPRAS",
		Anchor: "Section 1 (intensional approach); Corollary 1",
		Header: []string{"i", "|D|", "lineage clauses", "KL time", "KL est", "FPRAS time", "FPRAS est", "exact"},
	}
	width := 2
	lens := []int{2, 3, 4, 5}
	if o.Quick {
		lens = []int{2, 3}
	}
	for _, i := range lens {
		q := cq.PathQuery("R", i)
		h := gen.LayeredPathInstance(q, width, gen.ProbRandomRational, o.Seed+int64(i))
		d := h.DB()

		exactStr := "—"
		var want float64
		if d.Size() <= 20 {
			want, _ = exact.MustPQE(q, h).Float64()
			exactStr = fmt.Sprintf("%.6f", want)
		}

		start := time.Now()
		dnf, err := lineage.Compute(q, d, 5_000_000)
		klTime := time.Since(start)
		klStr, clausesStr := "—", "overflow"
		if err == nil {
			clausesStr = fmt.Sprint(dnf.NumClauses())
			start = time.Now()
			kl := dnf.KarpLuby(h, lineage.KarpLubyOptions{Samples: 4000, Seed: o.Seed})
			klTime += time.Since(start)
			klStr = fmt.Sprintf("%.6f", kl)
		}

		start = time.Now()
		fpras, err := core.PQEEstimate(q, h, core.Options{Epsilon: o.Epsilon, Seed: o.Seed, MaxProcs: o.MaxProcs})
		fprasTime := time.Since(start)
		fprasStr := "—"
		if err == nil {
			fprasStr = fmt.Sprintf("%.6f", fpras)
		}

		t.Add(fmt.Sprint(i), fmt.Sprint(d.Size()), clausesStr,
			ms(klTime), klStr, ms(fprasTime), fprasStr, exactStr)
	}
	t.Note("shape to hold: Karp–Luby cost is driven by the lineage (exponential in i); the FPRAS stays polynomial — the crossover favours the FPRAS as i grows")
	return t
}
