package nfa

import (
	"math/rand"
	"testing"

	"pqe/internal/efloat"
	"pqe/internal/prefix"
	"pqe/internal/sched"
	"pqe/internal/splitmix"
)

// refPick is the reference linear scan the sampler drew with before the
// prefix rows: an index with probability proportional to the weights,
// or -1 if all are zero, drawing one variate only when the total is
// nonzero.
func refPick(rng *splitmix.Stream, weights []efloat.E) int {
	total := efloat.Sum(weights...)
	if total.IsZero() {
		return -1
	}
	target := total.MulFloat(rng.Float64())
	acc := efloat.Zero
	last := -1
	for i, w := range weights {
		if w.IsZero() {
			continue
		}
		last = i
		acc = acc.Add(w)
		if target.Less(acc) {
			return i
		}
	}
	return last
}

// warmRun runs the estimation pass of one trial at length n, seeded as
// the first trial of a Count call with opts, and returns the run with
// every table its samplers read filled.
func warmRun(m *NFA, n int, opts CountOptions) *wordRun {
	opts = opts.withDefaults()
	pl, _ := planFor(m)
	r := pl.getRun(opts, opts.schedule().Seeds()[0])
	call := newCallState(pl, opts.MaxProcs)
	sched.Run(sched.Config{Procs: opts.MaxProcs, Trials: 1, Labels: schedLabels}, func(w *sched.Worker, _ int) {
		r.w, r.call = w, call
		r.ensurePfx(n)
		r.topLevel(n)
	})
	return r
}

// checkPicks draws from row and from the reference scan over ws on twin
// streams: same index and same number of variates consumed, draw for
// draw.
func checkPicks(t *testing.T, what string, row *prefix.Row, ws []efloat.E, seed uint64) {
	t.Helper()
	s1, s2 := splitmix.New(seed), splitmix.New(seed)
	for draw := 0; draw < 4; draw++ {
		if a, b := refPick(&s1, ws), row.Pick(&s2); a != b {
			t.Fatalf("%s draw %d: pick=%d row=%d weights=%v", what, draw, a, b, ws)
		}
		if s1 != s2 {
			t.Fatalf("%s draw %d: streams diverged", what, draw)
		}
	}
}

// Every row a run freezes — state entries and interned target sets —
// must pick exactly as the linear scan over the run's own memo lookups,
// so moving the samplers onto the rows changed no draw.
func TestPickRowMatchesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	automata := []*NFA{buildAB()}
	for i := 0; i < 15; i++ {
		automata = append(automata, randomNFA(rng))
	}
	rows := 0
	for ai, m := range automata {
		n := 2 + rng.Intn(8)
		r := warmRun(m, n, CountOptions{Epsilon: 0.3, Trials: 1, Seed: int64(ai)})
		for l := 1; l <= n; l++ {
			for q, entries := range r.pl.ix.states {
				ws := make([]efloat.E, len(entries))
				for i := range entries {
					ws[i] = r.unionLookup(&entries[i], l-1)
				}
				checkPicks(t, "entry", r.entryRow(q, l), ws, rng.Uint64())
				rows++
			}
		}
		for l := 0; l < n; l++ {
			for set, targets := range r.pl.ix.sets {
				ws := make([]efloat.E, len(targets))
				for j, q := range targets {
					ws[j] = r.wordLookup(q, l)
				}
				checkPicks(t, "target", r.targetRow(set, l), ws, rng.Uint64())
				rows++
			}
		}
	}
	if rows == 0 {
		t.Fatal("no rows checked")
	}
}

// rowOf freezes ws through a Builder into a one-cell grid, the path the
// run's row builders take.
func rowOf(b *prefix.Builder, ws []efloat.E) *prefix.Row {
	var g prefix.Grid
	g.Grow(1, 0)
	return b.Build(&g, 0, 0, len(ws), func(w []efloat.E) { copy(w, ws) })
}

func TestPickEdgeCases(t *testing.T) {
	// A run's dead cells: from q0 the only letter a leads to {q1, q2},
	// neither of which reads another letter, so q0's entry row at length
	// 2 and the target set's row at length 1 are all zero, and q1's entry
	// row is empty. They must pick -1 without drawing: the rejection
	// loops rely on dead branches consuming no variate.
	m := New()
	q0, q1, q2 := m.AddState(), m.AddState(), m.AddState()
	m.AddTransition(q0, "a", q1)
	m.AddTransition(q0, "a", q2)
	m.SetInitial(q0)
	m.SetFinal(q1)
	r := warmRun(m, 2, CountOptions{Epsilon: 0.3, Trials: 1, Seed: 1})
	en := &r.pl.ix.states[q0][0]
	if en.set < 0 {
		t.Fatalf("q0's entry has %d targets, want a union", len(en.targets))
	}
	fresh, s := splitmix.New(9), splitmix.New(9)
	if got := r.entryRow(q0, 2).Pick(&s); got != -1 {
		t.Errorf("entry row of a dead cell picked %d, want -1", got)
	}
	if got := r.targetRow(en.set, 1).Pick(&s); got != -1 {
		t.Errorf("target row of a dead cell picked %d, want -1", got)
	}
	if got := r.entryRow(q1, 1).Pick(&s); got != -1 {
		t.Errorf("empty entry row picked %d, want -1", got)
	}
	if s != fresh {
		t.Error("zero-total row consumed a variate")
	}

	b := &prefix.Builder{}
	zero4 := make([]efloat.E, 4)
	s = splitmix.New(1)
	if got := refPick(&s, zero4); got != -1 {
		t.Errorf("pick(all zero) = %d, want -1", got)
	}
	if got := rowOf(b, zero4).Pick(&s); got != -1 {
		t.Errorf("row(all zero) = %d, want -1", got)
	}
	if got := rowOf(b, nil).Pick(&s); got != -1 {
		t.Errorf("row(empty) = %d, want -1", got)
	}

	// A single nonzero tail weight must always be chosen, by both
	// implementations, whatever the variate.
	tail := []efloat.E{efloat.Zero, efloat.Zero, efloat.One}
	row := rowOf(b, tail)
	for seed := uint64(0); seed < 50; seed++ {
		s = splitmix.New(seed)
		if got := refPick(&s, tail); got != 2 {
			t.Fatalf("seed %d: pick(tail) = %d, want 2", seed, got)
		}
		s = splitmix.New(seed)
		if got := row.Pick(&s); got != 2 {
			t.Fatalf("seed %d: row(tail) = %d, want 2", seed, got)
		}
	}

	// Trailing zero weights: the chosen index must never land past the
	// last nonzero weight.
	trail := []efloat.E{efloat.One, efloat.FromInt(3), efloat.Zero, efloat.Zero}
	row = rowOf(b, trail)
	for seed := uint64(0); seed < 50; seed++ {
		s = splitmix.New(seed)
		if got := row.Pick(&s); got < 0 || got > 1 {
			t.Fatalf("seed %d: row(trail) = %d, want 0 or 1", seed, got)
		}
	}
}
