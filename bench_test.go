package pqe

// One benchmark per experiment in DESIGN.md's index (the paper's
// Table 1 plus the derived experiments E2–E12 and ablations A1–A2), so
// `go test -bench=.` regenerates every row's workload under the Go
// benchmark harness, plus component micro-benchmarks for the substrate
// layers. cmd/pqebench prints the corresponding human-readable tables.

import (
	"fmt"
	"math/big"
	"runtime"
	"testing"

	"pqe/internal/alphabet"
	"pqe/internal/core"
	"pqe/internal/count"
	"pqe/internal/cq"
	"pqe/internal/experiments"
	"pqe/internal/gen"
	"pqe/internal/hypertree"
	"pqe/internal/lineage"
	"pqe/internal/nfa"
	"pqe/internal/nfta"
	"pqe/internal/reduction"
	"pqe/internal/safeplan"
)

var benchSink any

// benchWorkers are the intra-trial worker counts the headline
// estimator benchmarks sweep: sequential plus all cores (skipped when
// they coincide). Results are identical at every setting; only the
// wall clock moves.
func benchWorkers() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// --- T1: Table 1 landscape ---

func BenchmarkTable1Landscape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.Table1(experiments.Opts{Quick: true, Seed: int64(i + 1)})
	}
}

// --- E2: Theorem 2, PathEstimate ---

func BenchmarkPathEstimate(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		q := cq.PathQuery("R", n)
		h := gen.SparsePathInstance(q, 3, 2, gen.ProbHalf, 1)
		d := h.DB()
		b.Run(fmt.Sprintf("len=%d_facts=%d", n, d.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := core.PathEstimate(q, d, core.Options{Epsilon: 0.1, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
	}
}

// --- E3: Theorem 3, UREstimate ---

func BenchmarkUREstimate(b *testing.B) {
	for _, tc := range []struct {
		name string
		q    *cq.Query
	}{
		{"path3", cq.PathQuery("R", 3)},
		{"star3", cq.StarQuery("S", 3)},
		{"triangle", cq.CycleQuery("C", 3)},
	} {
		h := gen.Instance(tc.q, gen.Config{FactsPerRelation: 3, DomainSize: 3, Seed: 2})
		d := h.DB()
		for _, w := range benchWorkers() {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v, err := core.UREstimate(tc.q, d, core.Options{Epsilon: 0.1, Seed: int64(i + 1), MaxProcs: w})
					if err != nil {
						b.Fatal(err)
					}
					benchSink = v
				}
			})
		}
	}
}

// --- E4: Theorem 1, PQEEstimate ---

func BenchmarkPQEEstimate(b *testing.B) {
	for _, n := range []int{2, 3} {
		q := cq.PathQuery("R", n)
		h := gen.Instance(q, gen.Config{
			FactsPerRelation: 3, DomainSize: 3,
			Model: gen.ProbRandomRational, Seed: 3,
		})
		b.Run(fmt.Sprintf("len=%d_facts=%d", n, h.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := core.PQEEstimate(q, h, core.Options{Epsilon: 0.1, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
	}
}

// --- E5: lineage blow-up vs automaton size ---

func BenchmarkLineageVsAutomaton(b *testing.B) {
	for _, i := range []int{2, 3, 4, 5} {
		q := cq.PathQuery("R", i)
		h := gen.LayeredPathInstance(q, 3, gen.ProbHalf, 1)
		d := h.DB()
		b.Run(fmt.Sprintf("lineage/i=%d", i), func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				f, err := lineage.Compute(q, d, 0)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = f
			}
		})
		b.Run(fmt.Sprintf("automaton/i=%d", i), func(b *testing.B) {
			dec, err := hypertree.Decompose(q)
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < b.N; k++ {
				red, err := reduction.BuildUR(q, d, dec)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = red
			}
		})
	}
}

// --- E6: runtime scaling in |D| ---

func BenchmarkScalingDatabase(b *testing.B) {
	q := cq.PathQuery("R", 3)
	for _, chains := range []int{2, 4, 8, 16} {
		h := gen.SparsePathInstance(q, chains, 2, gen.ProbHalf, 1)
		d := h.DB()
		b.Run(fmt.Sprintf("facts=%d", d.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := core.UREstimate(q, d, core.Options{Epsilon: 0.2, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
	}
}

// --- E7: runtime scaling in 1/ε ---

func BenchmarkScalingEpsilon(b *testing.B) {
	// Layered instance: overlapping unions make the ε-dependent sample
	// counts actually matter (see E7 in internal/experiments).
	q := cq.PathQuery("R", 3)
	h := gen.LayeredPathInstance(q, 2, gen.ProbRandomRational, 1)
	for _, eps := range []float64{0.4, 0.2, 0.1, 0.05} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := core.PQEEstimate(q, h, core.Options{Epsilon: eps, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
	}
}

// --- E8: Karp–Luby intensional baseline ---

func BenchmarkKarpLubyBaseline(b *testing.B) {
	for _, i := range []int{2, 3, 4} {
		q := cq.PathQuery("R", i)
		h := gen.LayeredPathInstance(q, 2, gen.ProbRandomRational, 1)
		d := h.DB()
		dnf, err := lineage.Compute(q, d, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("karpluby/i=%d_clauses=%d", i, dnf.NumClauses()), func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				benchSink = dnf.KarpLuby(h, lineage.KarpLubyOptions{Samples: 2000, Seed: int64(k + 1)})
			}
		})
		b.Run(fmt.Sprintf("fpras/i=%d", i), func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				v, err := core.PQEEstimate(q, h, core.Options{Epsilon: 0.2, Seed: int64(k + 1)})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
	}
}

// --- E9: safe plans ---

func BenchmarkSafePlan(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		q := cq.StarQuery("S", n)
		h := gen.Instance(q, gen.Config{
			FactsPerRelation: 4, DomainSize: 3,
			Model: gen.ProbRandomRational, Seed: 2,
		})
		b.Run(fmt.Sprintf("star%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := safeplan.Evaluate(q, h)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
	}
}

// --- A1: multiplier gadget ablation ---

func BenchmarkMultiplierGadget(b *testing.B) {
	for _, n := range []int64{10, 100, 1000} {
		b.Run(fmt.Sprintf("binary/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = buildMult(b, n, true)
			}
		})
		b.Run(fmt.Sprintf("unary/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = buildMult(b, n, false)
			}
		})
	}
}

func buildMult(b *testing.B, n int64, binary bool) *nfta.NFTA {
	b.Helper()
	in := alphabet.New()
	ma := nfta.NewMult(in)
	root := ma.AddState()
	ma.SetInitial(root)
	m := big.NewInt(n)
	if err := ma.AddTransition(root, in.Intern("x"), m, nfta.DigitsFor(m)); err != nil {
		b.Fatal(err)
	}
	var out *nfta.NFTA
	var err error
	if binary {
		out, err = ma.Translate()
	} else {
		out, err = ma.TranslateUnary()
	}
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// --- A2: augmented translation ablation ---

func BenchmarkAugmentedTranslation(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := alphabet.New()
				aug := nfta.NewAugmented(in)
				root := aug.AddState()
				aug.SetInitial(root)
				label := make([]nfta.AugSymbol, n)
				for j := range label {
					label[j] = nfta.Opt(in.Intern(fmt.Sprintf("s%d", j)))
				}
				aug.AddTransition(root, label)
				out, err := aug.Translate()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}

// --- component micro-benchmarks ---

func BenchmarkCountNFA(b *testing.B) {
	q := cq.PathQuery("R", 3)
	h := gen.SparsePathInstance(q, 4, 2, gen.ProbHalf, 1)
	d := h.DB()
	m, err := reduction.PathNFA(q, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = nfa.Count(m, d.Size(), nfa.CountOptions{Epsilon: 0.1, Seed: int64(i + 1)})
	}
}

func BenchmarkCountNFTA(b *testing.B) {
	q := cq.PathQuery("R", 3)
	h := gen.SparsePathInstance(q, 3, 2, gen.ProbHalf, 1)
	d := h.DB()
	dec, err := hypertree.Decompose(q)
	if err != nil {
		b.Fatal(err)
	}
	red, err := reduction.BuildUR(q, d, dec)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = count.Trees(red.Auto, red.TreeSize, count.Options{Epsilon: 0.1, Seed: int64(i + 1), MaxProcs: w})
			}
		})
	}
}

func BenchmarkDecompose(b *testing.B) {
	queries := []*cq.Query{
		cq.PathQuery("R", 6),
		cq.CycleQuery("C", 6),
	}
	for _, q := range queries {
		b.Run(q.String()[:8], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := hypertree.Decompose(q)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = d
			}
		})
	}
}

func BenchmarkSafePlanVsBruteForce(b *testing.B) {
	q := cq.StarQuery("S", 3)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 4, DomainSize: 3, Model: gen.ProbRandomRational, Seed: 5})
	b.Run("safeplan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := safeplan.Evaluate(q, h)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = v
		}
	})
}

// --- E10: tree vs string pipeline on path queries ---

func BenchmarkPathPipeline(b *testing.B) {
	for _, n := range []int{2, 3} {
		q := cq.PathQuery("R", n)
		h := gen.SparsePathInstance(q, 2, 1, gen.ProbRandomRational, 1)
		b.Run(fmt.Sprintf("tree/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := core.PQEEstimate(q, h, core.Options{Epsilon: 0.2, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
		b.Run(fmt.Sprintf("string/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := core.PathPQEEstimate(q, h, core.Options{Epsilon: 0.2, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
	}
}
