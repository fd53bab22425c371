package nfa_test

import (
	"testing"

	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/gen"
	"pqe/internal/nfa"
	"pqe/internal/reduction"
	"pqe/internal/union"
)

// weightedPath3 is the path3-rational request shape of the pqed
// benchmark: the weighted string automaton of R1(x,y), R2(y,z), R3(z,w)
// over 10 facts per relation with random rational probabilities.
func weightedPath3(b *testing.B) *reduction.PathPQEReduction {
	q := cq.PathQuery("R", 3)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 10, DomainSize: 4, Model: gen.ProbRandomRational, Seed: 13})
	red, err := reduction.BuildPathPQE(q, h)
	if err != nil {
		b.Fatal(err)
	}
	return red
}

// BenchmarkCountNFAWeightedPath3 is one routed path3-rational request's
// counting phase at MaxProcs 1: estimation plus the overlap-sampling
// loops, where nearly all the time goes to the sampler kernels
// (prefix-row picks, the word walk and subset-simulation acceptance).
func BenchmarkCountNFAWeightedPath3(b *testing.B) {
	red := weightedPath3(b)
	opts := union.Options{Epsilon: 0.1, MaxProcs: 1}
	nfa.Count(red.Auto, red.WordSize, opts) // build the plan outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		v := nfa.Count(red.Auto, red.WordSize, opts)
		if v.IsZero() {
			b.Fatal("estimate collapsed to zero")
		}
		benchSink = v
	}
}

// BenchmarkAcceptsSet times the acceptance kernel alone on the weighted
// path3 automaton. The inputs come from sampled words: for each prefix
// length p, the frontier after w[:p] tested against the rest of the word
// (accepted, so the run reads every letter) and against the rest shifted
// by one letter (usually rejected after a few steps, the common case in
// overlap sampling).
func BenchmarkAcceptsSet(b *testing.B) {
	red := weightedPath3(b)
	m := red.Auto
	type call struct{ states, word []int }
	var calls []call
	for seed := int64(1); seed <= 8; seed++ {
		w := nfa.SampleWord(m, red.WordSize, union.Options{Epsilon: 0.5, Seed: seed})
		if w == nil {
			b.Fatal("empty language")
		}
		front := m.Initial()
		for p := 0; p < len(w) && len(front) > 0; p++ {
			calls = append(calls, call{front, w[p:]})
			if p+1 < len(w) {
				calls = append(calls, call{front, w[p+1:]})
			}
			front = m.Step(front, w[p])
		}
	}
	accepts := nfa.AcceptsSet(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := calls[i%len(calls)]
		acceptSink = accepts(c.states, c.word)
	}
}

// BenchmarkAcceptsBatch times the batched acceptance kernel on the
// same sampled weighted path3 inputs as BenchmarkAcceptsSet, in groups
// of 64: each of that benchmark's (frontier, suffix) calls becomes one
// group that tests the suffix at the same position of 64 sampled words
// (the call's own word among them) from the call's frontier. An op is
// one group; ns/word divides it by the 64 words, to set beside
// BenchmarkAcceptsSet's ns/op.
func BenchmarkAcceptsBatch(b *testing.B) {
	red := weightedPath3(b)
	m := red.Auto
	var ws [][]int
	for seed := int64(1); seed <= 64; seed++ {
		w := nfa.SampleWord(m, red.WordSize, union.Options{Epsilon: 0.5, Seed: seed})
		if w == nil {
			b.Fatal("empty language")
		}
		ws = append(ws, w)
	}
	type group struct {
		states, words []int
		l             int
	}
	var groups []group
	suffixes := func(states []int, from int) group {
		g := group{states: states, l: len(ws[0]) - from}
		for _, w := range ws {
			g.words = append(g.words, w[from:]...)
		}
		return g
	}
	for _, w := range ws[:8] {
		front := m.Initial()
		for p := 0; p < len(w) && len(front) > 0; p++ {
			groups = append(groups, suffixes(front, p))
			if p+1 < len(w) {
				groups = append(groups, suffixes(front, p+1))
			}
			front = m.Step(front, w[p])
		}
	}
	accepts := nfa.AcceptsBatch(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := groups[i%len(groups)]
		batchSink = accepts(g.states, g.words, g.l, ^uint64(0))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/word")
}

var (
	benchSink  efloat.E
	acceptSink bool
	batchSink  uint64
)
