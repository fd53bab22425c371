package nfa

import (
	"slices"
	"testing"
)

// TestGoldenSampleWord pins SampleWord's output on the ambiguous
// automaton literally: the walk draws through multi-target entries
// (canonical-first rejection, acceptance checks) at every a, so a
// sampler kernel change that moves a single draw or variate shows here.
// The second automaton has two initial states, so the top-level draw
// resolves the union over them too.
func TestGoldenSampleWord(t *testing.T) {
	one := buildAB()
	two := buildAB()
	two.SetInitial(1)
	for _, tc := range []struct {
		name string
		m    *NFA
		want map[int64][]int
	}{
		{"one-initial", one, map[int64][]int{
			1: {0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0},
			2: {1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1},
			3: {0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1},
		}},
		{"two-initial", two, map[int64][]int{
			1: {1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 1},
			2: {1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1},
			3: {1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1},
		}},
	} {
		for seed, w := range tc.want {
			if got := SampleWord(tc.m, 16, CountOptions{Epsilon: 0.2, Seed: seed}); !slices.Equal(got, w) {
				t.Errorf("%s seed %d: SampleWord = %v, want %v", tc.name, seed, got, w)
			}
		}
	}
}
