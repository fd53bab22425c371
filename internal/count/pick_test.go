package count

import (
	"math/rand"
	"testing"

	"pqe/internal/efloat"
	"pqe/internal/nfta"
	"pqe/internal/prefix"
	"pqe/internal/splitmix"
	"pqe/internal/union"
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

// warmRun runs the estimation pass of one trial at size n, seeded as
// the first trial of a Trees call with opts, and returns the run with
// every table its samplers read filled. The run is back in the plan's
// pool, intact until the next call on the automaton reuses it.
func warmRun(a *nfta.NFTA, n int, opts union.Options) *run {
	pl, _ := planFor(a)
	var warm *run
	pl.Warm(n, opts, func(r *run, _ efloat.E) { warm = r })
	return warm
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

// Every row a run freezes — state entries, union branches, forest
// splits — must pick exactly as the linear scan over the run's own memo
// lookups, so moving the samplers onto the rows changed no draw.
func TestPickRowMatchesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	automata := []*nfta.NFTA{heavyOverlap(), ambiguous(), fullBinary()}
	for i := 0; i < 12; i++ {
		automata = append(automata, randomNFTA(rng))
	}
	rows := 0
	for ai, a := range automata {
		n := 2 + rng.Intn(6)
		r := warmRun(a, n, Options{Epsilon: 0.3, Trials: 1, Seed: int64(ai)})
		for m := 1; m <= n; m++ {
			for q, entries := range r.pl.states {
				ws := make([]efloat.E, len(entries))
				for i := range entries {
					ws[i] = r.unionLookup(&entries[i], m)
				}
				checkPicks(t, "entry", r.entryRow(q, m), ws, rng.Uint64())
				rows++
				for i := range entries {
					en := &entries[i]
					if len(en.tuples) < 2 {
						continue
					}
					ws := make([]efloat.E, len(en.tuples))
					for j, tid := range en.tuples {
						ws[j] = r.forestLookup(tid, m-1)
					}
					checkPicks(t, "branch", r.branchRow(en, m), ws, rng.Uint64())
					rows++
				}
			}
			for tid, tuple := range r.pl.tuples {
				maxHead := m - (len(tuple) - 1)
				if len(tuple) < 2 || maxHead < 1 {
					continue
				}
				ws := make([]efloat.E, maxHead)
				for j := 1; j <= maxHead; j++ {
					ws[j-1] = r.treeLookup(tuple[0], j).Mul(r.forestLookup(r.pl.restID[tid], m-j))
				}
				checkPicks(t, "split", r.splitRow(tid, m, maxHead), ws, rng.Uint64())
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
	// A run's dead cells: heavyOverlap's root has no tree of size 1, so
	// its entry row and its union's branch row there are all zero. They
	// must pick -1 without drawing: the rejection loops rely on dead
	// branches consuming no variate.
	a := heavyOverlap()
	r := warmRun(a, 4, Options{Epsilon: 0.3, Trials: 1, Seed: 1})
	top := a.Initial()
	en := &r.pl.states[top][0]
	if len(en.tuples) < 2 {
		t.Fatalf("root entry has %d branches, want a union", len(en.tuples))
	}
	fresh, s := splitmix.New(9), splitmix.New(9)
	if got := r.entryRow(top, 1).Pick(&s); got != -1 {
		t.Errorf("entry row of a dead cell picked %d, want -1", got)
	}
	if got := r.branchRow(en, 1).Pick(&s); got != -1 {
		t.Errorf("branch row of a dead cell picked %d, want -1", got)
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
