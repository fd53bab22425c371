package prefix

import (
	"math/rand"
	"sync"
	"testing"

	"pqe/internal/efloat"
	"pqe/internal/splitmix"
)

// refPick is the reference linear scan the engines' samplers used
// before the rows: it returns an index with probability proportional
// to the weights, or -1 if all are zero, drawing one variate from rng
// only when the total is nonzero.
func refPick(rng *splitmix.Stream, weights []efloat.E) int {
	total := efloat.Sum(weights...)
	if total.IsZero() {
		return -1
	}
	return refPickAt(weights, total, rng.Float64())
}

func refPickAt(weights []efloat.E, total efloat.E, u float64) int {
	target := total.MulFloat(u)
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

// rowOf freezes the weights the way the engines do, through a Builder
// publishing into a one-cell grid.
func rowOf(b *Builder, ws []efloat.E) *Row {
	var g Grid
	g.Grow(1, 0)
	return b.Build(&g, 0, 0, len(ws), func(w []efloat.E) { copy(w, ws) })
}

func randomWeights(rng *rand.Rand, k int) []efloat.E {
	ws := make([]efloat.E, k)
	for i := range ws {
		switch rng.Intn(3) {
		case 0: // zero weight
		case 1:
			ws[i] = efloat.FromInt(1 + rng.Int63n(1000))
		default:
			ws[i] = efloat.Pow2(int64(rng.Intn(400) - 200)).MulFloat(1 + rng.Float64())
		}
	}
	return ws
}

// Pick must match the reference linear scan draw-for-draw on the same
// RNG stream: same index, same single variate consumed. The engines'
// tests of the same name check the rows their runs build.
func TestPickRowMatchesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	b := &Builder{}
	for trial := 0; trial < 2000; trial++ {
		if trial%50 == 0 {
			b.Reset() // rebuild over recycled storage too
		}
		ws := randomWeights(rng, 1+rng.Intn(8))
		row := rowOf(b, ws)
		seed := rng.Uint64()
		s1, s2 := splitmix.New(seed), splitmix.New(seed)
		for draw := 0; draw < 4; draw++ {
			a, c := refPick(&s1, ws), row.Pick(&s2)
			if a != c {
				t.Fatalf("trial %d draw %d: pick=%d Pick=%d weights=%v", trial, draw, a, c, ws)
			}
			// Stream states must stay aligned (same number of variates
			// consumed), or later draws would diverge silently.
			if s1 != s2 {
				t.Fatalf("trial %d draw %d: streams diverged", trial, draw)
			}
		}
	}
}

func TestPickEdgeCases(t *testing.T) {
	b := &Builder{}
	zero4 := make([]efloat.E, 4)
	s := splitmix.New(1)
	if got := refPick(&s, zero4); got != -1 {
		t.Errorf("pick(all zero) = %d, want -1", got)
	}
	if got := rowOf(b, zero4).Pick(&s); got != -1 {
		t.Errorf("Pick(all zero) = %d, want -1", got)
	}
	if got := rowOf(b, nil).Pick(&s); got != -1 {
		t.Errorf("Pick(empty) = %d, want -1", got)
	}
	// Empty and all-zero rows must not consume a variate: the callers
	// rely on rejection loops drawing nothing on dead branches.
	fresh := splitmix.New(9)
	s = splitmix.New(9)
	refPick(&s, zero4)
	rowOf(b, zero4).Pick(&s)
	rowOf(b, nil).Pick(&s)
	if s != fresh {
		t.Error("zero-total pick consumed a variate")
	}

	// A single nonzero tail weight must always be chosen, by both
	// implementations, whatever the variate.
	tail := []efloat.E{efloat.Zero, efloat.Zero, efloat.One}
	row := rowOf(b, tail)
	if row.last != 2 {
		t.Fatalf("last = %d, want 2", row.last)
	}
	for seed := uint64(0); seed < 50; seed++ {
		s = splitmix.New(seed)
		if got := refPick(&s, tail); got != 2 {
			t.Fatalf("seed %d: pick(tail) = %d, want 2", seed, got)
		}
		s = splitmix.New(seed)
		if got := row.Pick(&s); got != 2 {
			t.Fatalf("seed %d: Pick(tail) = %d, want 2", seed, got)
		}
	}

	// Trailing zero weights: the chosen index must never land past the
	// last nonzero weight (the row's recorded fallback).
	trail := []efloat.E{efloat.One, efloat.FromInt(3), efloat.Zero, efloat.Zero}
	row = rowOf(b, trail)
	for seed := uint64(0); seed < 50; seed++ {
		s = splitmix.New(seed)
		if got := row.Pick(&s); got > row.last {
			t.Fatalf("seed %d: Pick returned %d past last=%d", seed, got, row.last)
		}
	}
}

// The float path against the reference at the variates the stream
// rarely or never yields: u = 0 (a zero target exceeds no zero prefix)
// and u = 1 (the target reaches the total, so both fall back to the
// last nonzero index past any trailing zeros).
func TestPickFloatRowBoundaryVariates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := &Builder{}
	for trial := 0; trial < 500; trial++ {
		ws := randomWeights(rng, 1+rng.Intn(8))
		ws = append(ws, make([]efloat.E, rng.Intn(3))...) // trailing zeros
		total := efloat.Sum(ws...)
		if total.IsZero() {
			continue
		}
		row := rowOf(b, ws)
		if row.f == nil {
			t.Fatalf("trial %d: row spanning < 2^1022 fell back to efloat", trial)
		}
		for _, u := range []float64{0, 0.5, 1 - 0x1p-53, 1} {
			if want, got := refPickAt(ws, total, u), row.pickAt(u); got != want {
				t.Fatalf("trial %d u=%v: pickAt=%d, reference %d, weights=%v", trial, u, got, want, ws)
			}
		}
		if want, got := refPickAt(ws, total, 1), row.last; got != want {
			t.Fatalf("trial %d: last=%d, reference fallback %d", trial, got, want)
		}
	}
}

// A row whose smallest nonzero prefix sum lies more than 2^1022 below
// the total would lose bits as a subnormal float, so it keeps its
// efloat prefix sums; one at exactly 2^-1022 of the total stays float.
func TestPickWideRowFallback(t *testing.T) {
	b := &Builder{}
	cases := []struct {
		ws   []efloat.E
		wide bool
	}{
		{[]efloat.E{efloat.Pow2(-1100).MulFloat(1.5), efloat.Zero, efloat.One, efloat.FromInt(3)}, true},
		{[]efloat.E{efloat.Zero, efloat.Pow2(-2000), efloat.Pow2(2000)}, true},
		{[]efloat.E{efloat.Pow2(-1022), efloat.Zero, efloat.One}, false},
		{[]efloat.E{efloat.Pow2(-1023), efloat.One}, true},
	}
	for ci, c := range cases {
		row := rowOf(b, c.ws)
		if got := row.wide != nil; got != c.wide || (row.f == nil) != c.wide {
			t.Fatalf("case %d: wide=%v f=%v, want wide=%v", ci, row.wide != nil, row.f, c.wide)
		}
		total := efloat.Sum(c.ws...)
		for _, u := range []float64{0, 1e-300, 0.25, 0.5, 0.999, 1} {
			if want, got := refPickAt(c.ws, total, u), row.pickAt(u); got != want {
				t.Fatalf("case %d u=%v: pickAt=%d, reference %d", ci, u, got, want)
			}
		}
		for seed := uint64(0); seed < 200; seed++ {
			s1, s2 := splitmix.New(seed), splitmix.New(seed)
			if a, got := refPick(&s1, c.ws), row.Pick(&s2); a != got || s1 != s2 {
				t.Fatalf("case %d seed %d: Pick=%d, reference %d", ci, seed, got, a)
			}
		}
	}
}

// Grow keeps published rows at their (row, size) cell.
// Growing a grid allocates an empty one of the new width, dropping any
// published row (the engines only grow fresh or cleared grids);
// shrinking keeps the grid and its rows.
func TestGridGrowStartsEmpty(t *testing.T) {
	var g Grid
	b := &Builder{}
	g.Grow(3, 2)
	one := func(w []efloat.E) { w[0] = efloat.One }
	p := b.Build(&g, 2, 1, 1, one)
	g.Grow(3, 1) // shrinking is a no-op
	if got := g.Load(2, 1); got != p {
		t.Fatalf("shrinking Grow lost a row: %p, want %p", got, p)
	}
	g.Grow(3, 5)
	for r := 0; r < 3; r++ {
		for c := 0; c <= 5; c++ {
			if g.Load(r, c) != nil {
				t.Fatalf("grown grid holds a row at (%d, %d)", r, c)
			}
		}
	}
	q := b.Build(&g, 2, 5, 1, one)
	if got := g.Load(2, 5); got != q {
		t.Fatalf("row at the grown width not published: %p, want %p", got, q)
	}
	g.Clear()
	if g.Load(2, 5) != nil {
		t.Fatal("Clear kept a row")
	}
}

// Samplers read rows lock-free while others build them: under -race
// this pins the double-checked publication, and every reader of a cell
// must see the one row built there.
func TestConcurrentBuildPublishesOnce(t *testing.T) {
	var g Grid
	b := &Builder{}
	const cells = 64
	g.Grow(cells, 0)
	var wg sync.WaitGroup
	got := make([][cells]*Row, 4)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				c := (i*7 + w*13) % cells
				p := g.Load(c, 0)
				if p == nil {
					p = b.Build(&g, c, 0, 1+c%5, func(ws []efloat.E) {
						for j := range ws {
							ws[j] = efloat.FromInt(int64(c + j))
						}
					})
				}
				s := splitmix.New(uint64(c))
				p.Pick(&s)
				got[w][c] = p
			}
		}(w)
	}
	wg.Wait()
	for c := 0; c < cells; c++ {
		for w := range got {
			if got[w][c] != got[0][c] {
				t.Fatalf("cell %d: workers saw different rows", c)
			}
		}
	}
}
