// Package prefix holds the prefix-sum weight rows both counting engines
// sample from (internal/count for trees, internal/nfa for strings).
//
// The samplers spend nearly all their time drawing from the same weight
// vectors: every draw at a given (state, size), (union slot, size),
// (tuple, size) or (target set, length) cell needs the identical
// memo-table lookups and running sums the previous draw at that cell
// needed. A run therefore freezes, per cell, the prefix sums of the
// weight vector: a pick is one uniform variate and one binary search
// over a frozen row, and the row is shared by every sampler of the
// trial.
//
// # Bit-identity with the linear scan
//
// The reference pick sums the weights with efloat.Add, draws
// target = total.MulFloat(u) and returns the first index whose running
// sum exceeds the target (or the last nonzero index if none does).
// Add returns its other operand exactly when one side is Zero, so a
// zero weight leaves the running sum unchanged, and adding non-negative
// values is monotone; the frozen prefix sums c_0 ≤ … ≤ c_{k−1} = T are
// therefore exactly the scan's running sums, and the leftmost i with
// target < c_i is the index the scan stops at.
//
// # Exact float64 rows
//
// A finished row stores f_i = c_i·2^−e instead of c_i, where
// T = m·2^e with m ∈ [1, 2). With c_i = m_i·2^e_i and e_i ≤ e (because
// c_i ≤ T), f_i = m_i·2^(e_i−e) keeps c_i's 53-bit mantissa whenever
// e_i − e ≥ −1022, i.e. whenever f_i is a normal float64: then the
// scaling is exact and f_{k−1} = m. The reference target is
// norm(m·u, e), whose value is t·2^e with t = fl(m·u) (normalizing only
// moves the exponent), and efloat comparison is exact, so
// target < c_i ⇔ t < f_i. A pick on the float row computes the same
// product t = f_{k−1}·u and compares it against the floats: every
// comparison answers as the efloat one does, including u = 0 (t = 0
// exceeds no zero prefix, as Zero.Less does). Since the prefix sums are
// monotone, only the first nonzero one can fall below the normal range;
// a row where it does (a row spanning more than 2^1022) keeps its efloat
// prefix sums instead and picks the reference way.
//
// Empty and all-zero rows store nothing and draw no variate.
package prefix

import (
	"math"
	"sync"
	"sync/atomic"

	"pqe/internal/efloat"
	"pqe/internal/splitmix"
)

// Row is one frozen weight row. Exactly one representation is kept:
// f, the prefix sums scaled by 2^−exp(total), or, when some nonzero
// prefix sum would be subnormal at that scale, wide, the efloat prefix
// sums. Both are empty for empty and all-zero rows. last is the largest
// index with a nonzero weight (-1 when there is none), the scan's
// fallback should the target reach the total.
type Row struct {
	f    []float64
	wide *wideRow
	last int
}

type wideRow struct{ cum []efloat.E }

// Pick returns an index with probability proportional to the row's
// weights, or -1 if they are all zero; it consumes one variate of rng
// exactly when it returns an index.
func (p *Row) Pick(rng *splitmix.Stream) int {
	if len(p.f) == 0 && p.wide == nil {
		return -1
	}
	return p.pickAt(rng.Float64())
}

// pickAt is Pick for the variate u on a row with a nonzero weight.
func (p *Row) pickAt(u float64) int {
	f := p.f
	n := len(f)
	if n == 0 {
		return p.wide.pickAt(u, p.last)
	}
	t := f[n-1] * u
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t < f[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < n {
		return lo
	}
	return p.last
}

func (w *wideRow) pickAt(u float64, last int) int {
	cum := w.cum
	n := len(cum)
	target := cum[n-1].MulFloat(u)
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if target.Less(cum[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < n {
		return lo
	}
	return last
}

// Grid is one kind of row slot, a flat array indexed row·(maxN+1)+size.
// Slots hold published rows; samplers read them lock-free.
type Grid struct {
	slots []atomic.Pointer[Row]
	width int // maxN+1
}

// Grow sizes the grid for rows × sizes 0..n, carrying published rows
// over. It must not run concurrently with readers: engines call it
// sequentially before estimation.
func (g *Grid) Grow(rows, n int) {
	if n < g.width {
		return
	}
	grown := make([]atomic.Pointer[Row], rows*(n+1))
	for r := 0; r < rows && g.width > 0; r++ {
		for c := 0; c < g.width; c++ {
			if p := g.slots[r*g.width+c].Load(); p != nil {
				grown[r*(n+1)+c].Store(p)
			}
		}
	}
	g.slots, g.width = grown, n+1
}

// Load returns the row published at (row, size), or nil.
func (g *Grid) Load(row, size int) *Row { return g.slots[row*g.width+size].Load() }

// Clear unpublishes every row, keeping the grid's size.
func (g *Grid) Clear() { clear(g.slots) }

// Builder freezes the rows of one run. Builds serialize on its mutex
// and publish with double-checked atomic stores, which order a row's
// contents for lock-free readers. Rows are bump-allocated in reusable
// chunks, so a pooled run's next trial rebuilds its rows without heap
// allocation.
type Builder struct {
	mu    sync.Mutex
	w     []efloat.E // weight scratch for the row being built
	rows  []Row
	rused int
	fs    []float64
	fused int
}

// Reset recycles every row; the caller must have cleared the grids
// that published them.
func (b *Builder) Reset() { b.rused, b.fused = 0, 0 }

// Build returns the row at (row, size) of g, building and publishing it
// first if there is none: fill writes the k weights. fill runs under
// the builder's mutex and must not build rows itself.
func (b *Builder) Build(g *Grid, row, size, k int, fill func(w []efloat.E)) *Row {
	slot := &g.slots[row*g.width+size]
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := slot.Load(); p != nil {
		return p
	}
	if cap(b.w) < k {
		b.w = make([]efloat.E, k)
	}
	w := b.w[:k]
	fill(w)
	p := b.freeze(w)
	slot.Store(p)
	return p
}

// freeze turns the weights into prefix sums in place and stores them
// in a new row, as floats when exact (see the package comment).
func (b *Builder) freeze(w []efloat.E) *Row {
	first, last := -1, -1
	acc := efloat.Zero
	for i, x := range w {
		if !x.IsZero() {
			if first < 0 {
				first = i
			}
			last = i
		}
		acc = acc.Add(x)
		w[i] = acc
	}
	if first < 0 {
		return &empty
	}
	p := b.row()
	p.last = last
	_, exp := acc.Parts()
	if _, e0 := w[first].Parts(); exp-e0 > 1022 {
		p.wide = &wideRow{cum: append([]efloat.E(nil), w...)}
		return p
	}
	f := b.floats(len(w))
	clear(f[:first])
	for i := first; i < len(w); i++ {
		m, e := w[i].Parts()
		// m ∈ [1, 2) has biased exponent 1023; lowering it by
		// exp−e ≤ 1022 keeps the result normal and m's mantissa bits.
		f[i] = math.Float64frombits(math.Float64bits(m) - uint64(exp-e)<<52)
	}
	p.f = f
	return p
}

// empty is the shared row of every empty or all-zero weight vector.
var empty = Row{last: -1}

func (b *Builder) row() *Row {
	if b.rused == len(b.rows) {
		b.rows = make([]Row, max(64, 2*len(b.rows)))
		b.rused = 0
	}
	p := &b.rows[b.rused]
	b.rused++
	*p = Row{}
	return p
}

// floats hands out k floats of recycled storage.
func (b *Builder) floats(k int) []float64 {
	if b.fused+k > len(b.fs) {
		b.fs = make([]float64, max(1024, 2*len(b.fs)+k))
		b.fused = 0
	}
	f := b.fs[b.fused : b.fused+k : b.fused+k]
	b.fused += k
	return f
}
