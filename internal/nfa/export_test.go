package nfa

// AcceptsSet exposes the sampler's acceptance kernel to the external
// benchmarks: the returned function reports whether any of the states
// accepts the word, on one sampler bound to a fresh run over m.
func AcceptsSet(m *NFA) func(states, word []int) bool {
	return acceptsKernel(m).acceptsSet
}

// acceptsKernel returns a sampler bound to a fresh run over m, ready
// for acceptsSet calls.
func acceptsKernel(m *NFA) *sampler {
	pl, _ := planFor(m)
	s := newSampler(pl)
	s.Bind(pl.newRun())
	return s
}

// AcceptsBatch exposes the sampler's batched acceptance kernel to the
// external benchmarks: the returned function reports, as a mask over
// the words whose valid bit is set, which words of length l (stored
// word-major in words) some state accepts.
func AcceptsBatch(m *NFA) func(states, words []int, l int, valid uint64) uint64 {
	return acceptsKernel(m).acceptsBatch
}
