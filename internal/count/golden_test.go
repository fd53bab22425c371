package count

import (
	"testing"

	"pqe/internal/nfta"
)

// goldenAmbiguous builds an automaton over binary f, unary g and leaves
// a, b whose runs overlap everywhere: from q, f and g each have several
// transitions whose child languages share trees, so sampled trees pass
// through multi-branch entries, forest splits and canonical-first
// rejection at every level.
func goldenAmbiguous() *nfta.NFTA {
	a := nfta.New()
	q := a.AddState()
	r := a.AddState()
	a.AddTransition(q, "f", q, q)
	a.AddTransition(q, "f", r, q)
	a.AddTransition(q, "f", q, r)
	a.AddTransition(r, "f", r, r)
	a.AddTransition(r, "g", r)
	a.AddTransition(q, "g", q)
	a.AddTransition(q, "g", r)
	a.AddTransition(q, "a")
	a.AddTransition(q, "b")
	a.AddTransition(r, "a")
	a.SetInitial(q)
	return a
}

// TestGoldenSampleTree pins SampleTree's output on goldenAmbiguous
// literally, as canonical tree keys over the symbol IDs (f 0, g 1,
// a 2, b 3): a sampler kernel change that moves a single draw or
// variate shows here.
func TestGoldenSampleTree(t *testing.T) {
	want := map[int64]string{
		1: "0(1(0(2,2)),0(1(0(2,3)),2))",
		2: "1(1(1(0(3,1(1(1(1(1(2)))))))))",
		3: "0(3,1(0(1(0(2,3)),0(3,2))))",
	}
	a := goldenAmbiguous()
	for seed, w := range want {
		tree := SampleTree(a, 11, Options{Epsilon: 0.2, Seed: seed})
		if tree == nil {
			t.Fatalf("seed %d: SampleTree = nil, want %s", seed, w)
		}
		if got := tree.Key(); got != w {
			t.Errorf("seed %d: SampleTree = %s, want %s", seed, got, w)
		}
	}
}
