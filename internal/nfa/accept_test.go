package nfa

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The sparse-frontier acceptance kernel must answer exactly as the
// reference NFA.AcceptsFrom on every (state set, word) pair, reusing
// one sampler across calls so stale marks and frontiers from earlier
// calls would show.
func TestAcceptsSetMatchesAcceptsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	died := 0
	for trial := 0; trial < 300; trial++ {
		m := randomNFA(rng)
		syms := m.Symbols.Size()
		if syms == 0 {
			continue
		}
		s := acceptsKernel(m)
		for call := 0; call < 20; call++ {
			states := make([]int, rng.Intn(4))
			for i := range states {
				states[i] = rng.Intn(m.NumStates())
			}
			word := make([]int, rng.Intn(8))
			for i := range word {
				word[i] = rng.Intn(syms)
			}
			want := m.AcceptsFrom(sortedSet(states), word)
			if got := s.acceptsSet(states, word); got != want {
				t.Fatalf("trial %d call %d: acceptsSet(%v, %v) = %v, want %v", trial, call, states, word, got, want)
			}
			if frontierDies(m, states, word) {
				died++
			}
		}
	}
	if died == 0 {
		t.Fatal("no call's frontier died mid-word; the cases miss the early exit")
	}
}

// A frontier that dies mid-word ends the run early, and the kernel's
// next call must not see its leftovers.
func TestAcceptsSetFrontierDies(t *testing.T) {
	m := buildAB()
	a, _ := m.Symbols.Lookup("a")
	b, _ := m.Symbols.Lookup("b")
	c := m.Symbols.Intern("c") // no transitions read c
	s := acceptsKernel(m)
	if s.acceptsSet([]int{0, 1}, []int{a, c, a}) {
		t.Fatal("accepted through a letter with no transitions")
	}
	if !s.acceptsSet([]int{0}, []int{b, a, b}) {
		t.Fatal("rejected bab from q0")
	}
	if s.acceptsSet([]int{0}, []int{b, b}) {
		t.Fatal("accepted bb from q0")
	}
	if s.acceptChecks != 3 {
		t.Fatalf("acceptChecks = %d, want one per call", s.acceptChecks)
	}
}

// The generation stamp wraps around after 2^32 steps; the wrap clears
// every mark so a stale stamp can never pass for the new generation.
func TestAcceptsSetStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 100; trial++ {
		m := randomNFA(rng)
		syms := m.Symbols.Size()
		if syms == 0 {
			continue
		}
		s := acceptsKernel(m)
		for call := 0; call < 6; call++ {
			// Cross the wrap by the first letter, over the stale marks a
			// long-lived sampler holds there: stamps of recent steps, and
			// early stamps of the previous cycle that equal generations
			// the wrap reissues.
			s.gen = math.MaxUint32 - uint32(rng.Intn(2))
			for q := range s.mark {
				if rng.Intn(2) == 0 {
					s.mark[q] = s.gen - uint32(rng.Intn(3))
				} else {
					s.mark[q] = 1 + uint32(rng.Intn(4))
				}
			}
			states := []int{rng.Intn(m.NumStates()), rng.Intn(m.NumStates())}
			word := make([]int, 1+rng.Intn(8))
			for i := range word {
				word[i] = rng.Intn(syms)
			}
			want := m.AcceptsFrom(sortedSet(states), word)
			if got := s.acceptsSet(states, word); got != want {
				t.Fatalf("trial %d call %d: acceptsSet(%v, %v) = %v across the wrap, want %v", trial, call, states, word, got, want)
			}
		}
		if s.gen == 0 || s.gen > 16 {
			t.Fatalf("trial %d: generation %d after the wrap", trial, s.gen)
		}
	}
}

func sortedSet(states []int) []int {
	out := slices.Clone(states)
	slices.Sort(out)
	return slices.Compact(out)
}

// frontierDies reports whether the subset run empties before the word
// ends.
func frontierDies(m *NFA, states, word []int) bool {
	cur := sortedSet(states)
	for i, a := range word {
		cur = m.Step(cur, a)
		if len(cur) == 0 {
			return i < len(word)-1
		}
	}
	return false
}
