package nfa

import (
	"math/rand"
	"slices"
	"testing"

	"pqe/internal/obs"
	"pqe/internal/splitmix"
	"pqe/internal/union"
)

// branchyNFA is a random automaton with more states and wider
// non-determinism than randomNFA: every state reads a few symbols, some
// with several targets, and self-loops are likely, so frontiers hold
// several states and a state stays live across consecutive letters.
func branchyNFA(rng *rand.Rand) *NFA {
	m := New()
	n := 4 + rng.Intn(9)
	m.AddStates(n)
	syms := []string{"a", "b", "c"}
	for q := 0; q < n; q++ {
		for _, a := range syms {
			if rng.Intn(3) == 0 {
				continue
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				m.AddTransition(q, a, rng.Intn(n))
			}
		}
	}
	m.SetInitial(rng.Intn(n), rng.Intn(n))
	m.SetFinal(rng.Intn(n), rng.Intn(n))
	return m
}

// walkWord returns a word of length l read along a random run from q,
// falling back to random letters once the run gets stuck, so a batch
// mixes words that survive to the end with words that die mid-way.
func walkWord(rng *rand.Rand, m *NFA, q, l int) []int {
	w := make([]int, l)
	for p := range w {
		var syms []int
		if q >= 0 {
			syms = m.OutSymbols(q)
		}
		if len(syms) == 0 {
			w[p] = rng.Intn(m.Symbols.Size())
			q = -1
			continue
		}
		w[p] = syms[rng.Intn(len(syms))]
		ts := m.Targets(q, w[p])
		q = ts[rng.Intn(len(ts))]
	}
	return w
}

// frontiers returns the reference subset run of the word from the set:
// the frontier before each letter and after the last.
func frontiers(m *NFA, states, word []int) [][]int {
	cur := sortedSet(states)
	out := [][]int{cur}
	for _, a := range word {
		cur = m.Step(cur, a)
		out = append(out, cur)
	}
	return out
}

// The batch kernel must answer, word by word, exactly as the reference
// NFA.AcceptsFrom, and return only the words whose valid bit is set.
// One sampler per automaton serves every group, and its masks must be
// all zero after each call, so state left over from an earlier group
// would show.
func TestAcceptsBatchMatchesAcceptsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	var cyclic, mixed, maskedAccepts int
	sizes := map[int]int{}
	for trial := 0; trial < 200; trial++ {
		var m *NFA
		if trial%2 == 0 {
			m = branchyNFA(rng)
		} else {
			m = randomNFA(rng)
		}
		s := acceptsKernel(m)
		m.Symbols.Intern("z") // a letter no transition reads
		for call := 0; call < 8; call++ {
			k := []int{1, 63, 64, 1 + rng.Intn(64)}[call%4]
			sizes[k]++
			states := make([]int, 1+rng.Intn(3))
			for i := range states {
				states[i] = rng.Intn(m.NumStates())
			}
			l := rng.Intn(10)
			words := make([]int, 0, k*l)
			var valid uint64
			for b := 0; b < k; b++ {
				var w []int
				if rng.Intn(4) == 0 {
					w = walkWord(rng, m, -1, l)
				} else {
					w = walkWord(rng, m, states[rng.Intn(len(states))], l)
				}
				words = append(words, w...)
				if rng.Intn(5) != 0 {
					valid |= 1 << b
				}
			}
			got := s.acceptsBatch(states, words, l, valid)
			survived, died := false, false
			for b := 0; b < k; b++ {
				w := words[b*l : (b+1)*l]
				acc := m.AcceptsFrom(sortedSet(states), w)
				if valid&(1<<b) == 0 {
					if got&(1<<b) != 0 {
						t.Fatalf("trial %d call %d: word %d accepted with its valid bit unset", trial, call, b)
					}
					if acc {
						maskedAccepts++
					}
					continue
				}
				if (got&(1<<b) != 0) != acc {
					t.Fatalf("trial %d call %d: word %d %v from %v: batch %v, AcceptsFrom %v",
						trial, call, b, w, states, got&(1<<b) != 0, acc)
				}
				fs := frontiers(m, states, w)
				if len(fs[l]) > 0 {
					survived = true
				} else {
					died = true
				}
				for p := 1; p < len(fs); p++ {
					for _, q := range fs[p] {
						if slices.Contains(fs[p-1], q) {
							cyclic++
						}
					}
				}
			}
			if survived && died {
				mixed++
			}
			for q := range s.curMask {
				if s.curMask[q] != 0 || s.nextMask[q] != 0 {
					t.Fatalf("trial %d call %d: state %d mask left set", trial, call, q)
				}
			}
			for a, x := range s.symMask {
				if x != 0 {
					t.Fatalf("trial %d call %d: symbol %d mask left set", trial, call, a)
				}
			}
		}
	}
	if cyclic == 0 || mixed == 0 || maskedAccepts == 0 {
		t.Fatalf("cases missed: cyclic %d, dead beside live %d, accepted words with unset valid bits %d",
			cyclic, mixed, maskedAccepts)
	}
	for _, k := range []int{1, 63, 64} {
		if sizes[k] == 0 {
			t.Fatalf("no group of %d words", k)
		}
	}
}

// refCountFresh is the per-sample overlap loop: each word drawn and
// membership-tested alone by the sparse one-word kernel.
func refCountFresh(s *sampler, targets []int, j, l int, site uint64, lo, hi int) int {
	buf := make([]int, l)
	fresh := 0
	for i := lo; i < hi; i++ {
		s.rng = splitmix.Derive(s.r.Seed, site, i)
		if !s.sampleFrom(targets[j], 0, buf) {
			continue
		}
		if !s.acceptsSet(targets[:j], buf) {
			fresh++
		}
	}
	return fresh
}

// Count on the batched overlap kernel must return the reference loop's
// bits, with the same acceptance-check and rejection totals, whatever
// the sample count and however the scheduler cuts [0, Samples) into
// chunks: counts just below, at and above one group, and chunk
// boundaries that fall inside a group at MaxProcs 2 and 4.
func TestCountFreshBatchBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	automata := []*NFA{buildAB()}
	for len(automata) < 4 {
		automata = append(automata, branchyNFA(rng))
	}
	var checks, fresh int
	tally := func(s *sampler, targets []int, j, l int, site uint64, lo, hi int) int {
		before := s.AcceptChecks
		f := refCountFresh(s, targets, j, l, site, lo, hi)
		checks += s.AcceptChecks - before
		fresh += f
		return f
	}
	count := func(m *NFA, n int, opts CountOptions) ([2]uint64, [2]int64) {
		reg := obs.NewRegistry()
		opts.Obs = obs.NewScope(nil, reg, nil)
		mant, exp := Count(m, n, opts).Bits()
		return [2]uint64{mant, uint64(exp)}, [2]int64{
			reg.Counter("countnfa_accept_checks_total").Value(),
			reg.Counter("countnfa_rejections_total").Value(),
		}
	}
	for ai, m := range automata {
		n := 6 + ai
		for _, samples := range []int{1, 63, 64, 65, 600} {
			opts := CountOptions{Epsilon: 0.3, Trials: 3, Samples: samples, Seed: int64(ai + 1), MaxProcs: 1}
			freshKernel = tally
			wantBits, wantCounts := count(m, n, opts)
			freshKernel = (*sampler).countFresh
			for _, procs := range []int{1, 2, 4} {
				opts.MaxProcs = procs
				gotBits, gotCounts := count(m, n, opts)
				if gotBits != wantBits || gotCounts != wantCounts {
					t.Fatalf("automaton %d Samples %d MaxProcs %d: bits %#x counters %v, reference %#x %v",
						ai, samples, procs, gotBits, gotCounts, wantBits, wantCounts)
				}
			}
		}
	}
	if fresh == 0 || fresh == checks {
		t.Fatalf("reference saw %d fresh of %d checked words; the cases miss either fresh or covered words", fresh, checks)
	}
}

// refSampleFrom and refSampleUnion are the word walk with every step
// drawn through its entry row, the single-entry ones included.
func (s *sampler) refSampleFrom(q, pos int, out []int) bool {
	r := s.r
	for ; pos < len(out); pos++ {
		rem := len(out) - pos
		i := r.entryRow(q, rem).Pick(&s.rng)
		if i < 0 {
			return false
		}
		en := &r.pl.ix.states[q][i]
		out[pos] = en.sym
		if len(en.targets) > 1 {
			return s.refSampleUnion(en.targets, en.set, rem-1, union.RetriesPerBranch*len(en.targets), pos+1, out)
		}
		q = en.targets[0]
	}
	return r.finals.Has(q)
}

func (s *sampler) refSampleUnion(targets []int, set, l, maxRetry, pos int, out []int) bool {
	trow := s.r.targetRow(set, l)
	have := false
	for retry := 0; retry < maxRetry; retry++ {
		j := trow.Pick(&s.rng)
		if j < 0 {
			break
		}
		if !s.refSampleFrom(targets[j], pos, out) {
			continue
		}
		have = true
		if j == 0 || !s.acceptsSet(targets[:j], out[pos:]) {
			return true
		}
		s.Rejections++
	}
	return have
}

// A walk step at a one-entry state draws its variate without the row.
// From every live cell the walk must yield the same word, the same
// success and the same final stream state as the walk that picks every
// row.
func TestSingleEntryStepMatchesRowWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	var single, multi, walks int
	for trial := 0; trial < 60; trial++ {
		var m *NFA
		if trial%2 == 0 {
			m = branchyNFA(rng)
		} else {
			m = randomNFA(rng)
		}
		n := 2 + rng.Intn(8)
		r := warmRun(m, n, CountOptions{Epsilon: 0.3, Trials: 1, Seed: int64(trial + 1)})
		for q, entries := range r.pl.ix.states {
			switch {
			case len(entries) == 1:
				single++
			case len(entries) > 1:
				multi++
			}
			for l := 1; l <= n; l++ {
				if r.wordLookup(q, l).IsZero() {
					continue // the walk never enters a dead cell
				}
				for seed := uint64(0); seed < 4; seed++ {
					a, b := &sampler{r: r, mark: make([]uint32, m.NumStates())}, &sampler{r: r, mark: make([]uint32, m.NumStates())}
					a.rng, b.rng = splitmix.New(seed), splitmix.New(seed)
					wa, wb := make([]int, l), make([]int, l)
					oka, okb := a.sampleFrom(q, 0, wa), b.refSampleFrom(q, 0, wb)
					if oka != okb || a.rng != b.rng || a.Rejections != b.Rejections || (oka && !slices.Equal(wa, wb)) {
						t.Fatalf("trial %d q %d l %d seed %d: walk %v %v, reference %v %v (streams equal %v)",
							trial, q, l, seed, oka, wa, okb, wb, a.rng == b.rng)
					}
					walks++
				}
			}
		}
	}
	if single == 0 || multi == 0 || walks == 0 {
		t.Fatalf("cases missed: %d one-entry states, %d multi-entry states, %d walks", single, multi, walks)
	}
}
