// Package efloat implements non-negative floating-point numbers with an
// extended exponent range.
//
// The counting estimators in this module manipulate cardinalities as large
// as 2^|D| · ∏ dᵢ, where |D| is the database size and dᵢ are probability
// denominators. Such values overflow float64 (whose exponent is capped at
// 1023) long before the algorithms reach interesting instance sizes. An
// E value stores a float64 mantissa in [1, 2) together with a separate
// int64 binary exponent, giving ~15 significant decimal digits over an
// effectively unbounded magnitude range, which is exactly what approximate
// counting needs.
//
// E values are immutable and safe to copy. The zero value is the number 0.
package efloat

import (
	"fmt"
	"math"
	"math/big"
	"sort"
)

// E is a non-negative extended-range float: mant × 2^exp with
// mant ∈ [1, 2) for nonzero values, and mant == 0, exp == 0 for zero.
type E struct {
	mant float64
	exp  int64
}

// Zero is the E representation of 0.
var Zero = E{}

// One is the E representation of 1.
var One = E{mant: 1, exp: 0}

// norm renormalizes an arbitrary non-negative mantissa/exponent pair so the
// mantissa lies in [1, 2).
func norm(mant float64, exp int64) E {
	if mant == 0 {
		return Zero
	}
	if mant < 0 || math.IsNaN(mant) || math.IsInf(mant, 0) {
		panic(fmt.Sprintf("efloat: invalid mantissa %v", mant))
	}
	frac, e := math.Frexp(mant) // frac ∈ [0.5, 1)
	return E{mant: frac * 2, exp: exp + int64(e) - 1}
}

// FromFloat converts a non-negative float64 to an E. It panics if f is
// negative, NaN or infinite.
func FromFloat(f float64) E {
	return norm(f, 0)
}

// FromInt converts a non-negative integer to an E.
func FromInt(n int64) E {
	if n < 0 {
		panic("efloat: negative integer")
	}
	return norm(float64(n), 0)
}

// FromBigInt converts a non-negative big.Int to an E without overflow.
func FromBigInt(n *big.Int) E {
	if n.Sign() < 0 {
		panic("efloat: negative big integer")
	}
	if n.Sign() == 0 {
		return Zero
	}
	bits := n.BitLen()
	// Take the top 53 bits as the mantissa and remember the shift.
	shift := 0
	if bits > 53 {
		shift = bits - 53
		n = new(big.Int).Rsh(n, uint(shift))
	}
	f, _ := new(big.Float).SetInt(n).Float64()
	return norm(f, int64(shift))
}

// FromBigRat converts a non-negative big.Rat to an E.
func FromBigRat(r *big.Rat) E {
	if r.Sign() < 0 {
		panic("efloat: negative rational")
	}
	if r.Sign() == 0 {
		return Zero
	}
	return FromBigInt(r.Num()).Div(FromBigInt(r.Denom()))
}

// Parts returns x's mantissa in [1, 2) and its binary exponent, with
// x = mant × 2^exp; Zero returns (0, 0).
func (x E) Parts() (mant float64, exp int64) { return x.mant, x.exp }

// Pow2 returns 2^k as an E, for any k (including negative).
func Pow2(k int64) E { return E{mant: 1, exp: k} }

// IsZero reports whether x is 0.
func (x E) IsZero() bool { return x.mant == 0 }

// Mul returns x · y.
func (x E) Mul(y E) E {
	if x.IsZero() || y.IsZero() {
		return Zero
	}
	return norm(x.mant*y.mant, x.exp+y.exp)
}

// Div returns x / y. It panics if y is 0.
func (x E) Div(y E) E {
	if y.IsZero() {
		panic("efloat: division by zero")
	}
	if x.IsZero() {
		return Zero
	}
	return norm(x.mant/y.mant, x.exp-y.exp)
}

// Add returns x + y.
func (x E) Add(y E) E {
	if x.IsZero() {
		return y
	}
	if y.IsZero() {
		return x
	}
	// Align exponents; if they differ by more than the float64 precision
	// the smaller term vanishes.
	if x.exp < y.exp {
		x, y = y, x
	}
	d := x.exp - y.exp
	if d > 64 {
		return x
	}
	return norm(x.mant+math.Ldexp(y.mant, -int(d)), x.exp)
}

// Sub returns x − y clamped at 0: approximate counts occasionally produce
// slightly negative differences, which the estimators treat as empty.
func (x E) Sub(y E) E {
	if y.IsZero() {
		return x
	}
	if x.IsZero() {
		return Zero
	}
	if x.exp < y.exp {
		return Zero
	}
	d := x.exp - y.exp
	if d > 64 {
		return x
	}
	m := x.mant - math.Ldexp(y.mant, -int(d))
	if m <= 0 {
		return Zero
	}
	return norm(m, x.exp)
}

// MulWeight returns x · w[i], or x itself when w is nil: the
// per-symbol weight vector of a weighted automaton, where nil means
// every weight is 1 and the product is skipped.
func (x E) MulWeight(w []E, i int) E {
	if w == nil {
		return x
	}
	return x.Mul(w[i])
}

// MulFloat returns x · f for a non-negative float64 f.
func (x E) MulFloat(f float64) E {
	if f == 0 || x.IsZero() {
		return Zero
	}
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("efloat: invalid factor %v", f))
	}
	return norm(x.mant*f, x.exp)
}

// Cmp compares x and y, returning -1, 0 or +1.
func (x E) Cmp(y E) int {
	switch {
	case x.IsZero() && y.IsZero():
		return 0
	case x.IsZero():
		return -1
	case y.IsZero():
		return 1
	case x.exp != y.exp:
		if x.exp < y.exp {
			return -1
		}
		return 1
	case x.mant < y.mant:
		return -1
	case x.mant > y.mant:
		return 1
	}
	return 0
}

// Less reports whether x < y.
func (x E) Less(y E) bool { return x.Cmp(y) < 0 }

// Float returns x as a float64. Values outside the float64 range saturate
// to 0 or +Inf.
func (x E) Float() float64 {
	if x.IsZero() {
		return 0
	}
	if x.exp > 1023 {
		return math.Inf(1)
	}
	if x.exp < -1073 {
		return 0
	}
	return math.Ldexp(x.mant, int(x.exp))
}

// Log2 returns log₂(x). It panics if x is 0.
func (x E) Log2() float64 {
	if x.IsZero() {
		panic("efloat: log of zero")
	}
	return float64(x.exp) + math.Log2(x.mant)
}

// Ratio returns x/y as a float64, saturating at +Inf; Ratio of two zeros
// is defined as 0. This is the primitive used to derive sampling
// probabilities from paired cardinality estimates.
func (x E) Ratio(y E) float64 {
	if x.IsZero() {
		return 0
	}
	if y.IsZero() {
		return math.Inf(1)
	}
	return x.Div(y).Float()
}

// BigFloat returns x as a big.Float with 128 bits of precision.
func (x E) BigFloat() *big.Float {
	f := big.NewFloat(x.mant).SetPrec(128)
	return f.SetMantExp(f, int(x.exp))
}

// BigInt returns x rounded toward zero to an integer; exact for the
// integer values an E holds exactly (all those below 2^53).
func (x E) BigInt() *big.Int {
	i, _ := x.BigFloat().Int(nil)
	return i
}

// String formats x in scientific base-10 notation, e.g. "3.21e+100".
func (x E) String() string {
	if x.IsZero() {
		return "0"
	}
	log10 := x.Log2() * math.Ln2 / math.Ln10
	e10 := math.Floor(log10)
	m10 := math.Pow(10, log10-e10)
	// Guard against rounding pushing the mantissa to 10.
	if m10 >= 10 {
		m10 /= 10
		e10++
	}
	return fmt.Sprintf("%.6ge%+03d", m10, int64(e10))
}

// Bits returns the exact wire representation of x: the IEEE-754 bit
// pattern of the mantissa and the binary exponent. Together with
// FromBits it round-trips every E losslessly, which JSON float
// encoding does not guarantee.
func (x E) Bits() (mant uint64, exp int64) {
	return math.Float64bits(x.mant), x.exp
}

// FromBits reconstructs an E from the representation returned by Bits.
// It rejects encodings that violate the normalization invariant (zero
// is {0, 0}; any other mantissa must lie in [1, 2)) so a corrupted or
// hostile wire value can never produce an E that compares or multiplies
// incorrectly.
func FromBits(mant uint64, exp int64) (E, error) {
	m := math.Float64frombits(mant)
	if m == 0 {
		if mant != 0 || exp != 0 {
			return Zero, fmt.Errorf("efloat: denormalized zero encoding {%#x, %d}", mant, exp)
		}
		return Zero, nil
	}
	if math.IsNaN(m) || m < 1 || m >= 2 {
		return Zero, fmt.Errorf("efloat: mantissa %v out of [1, 2)", m)
	}
	return E{mant: m, exp: exp}, nil
}

// Sum returns the sum of the given values.
func Sum(xs ...E) E {
	total := Zero
	for _, x := range xs {
		total = total.Add(x)
	}
	return total
}

// Max returns the larger of x and y.
func Max(x, y E) E {
	if x.Less(y) {
		return y
	}
	return x
}

// UpperMedian sorts xs in place and returns the upper median
// xs[len(xs)/2]. Every estimator merge — in-process and sharded — goes
// through this one function, so a trial multiset always reduces to the
// same E no matter where its trials ran. It panics on an empty slice.
func UpperMedian(xs []E) E {
	if len(xs) == 0 {
		panic("efloat: upper median of no values")
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].Less(xs[j]) })
	return xs[len(xs)/2]
}
