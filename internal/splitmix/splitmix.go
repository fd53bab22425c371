// Package splitmix provides the splitmix64 PRNG the counting engines
// (internal/count for trees, internal/nfa for strings) use to derive
// one statistically independent random stream per overlap sample.
//
// A Stream is a value type with one word of state, so a fresh stream
// can be materialized per sample without allocation. The determinism
// contract of both engines rests on this: each sample's stream depends
// only on (trial seed, sampling site, sample index), never on which
// goroutine runs it, so estimates are bit-identical at every MaxProcs
// setting for a fixed seed.
package splitmix

// Stream is a splitmix64 PRNG.
type Stream struct{ state uint64 }

// New returns a stream seeded with the raw state word.
func New(state uint64) Stream { return Stream{state: state} }

// Uint64 returns the next 64 uniform bits.
func (r *Stream) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Derive builds the PRNG for one overlap sample from the trial seed,
// the per-estimator sampling-site sequence number and the sample
// index. Distinct odd multipliers decorrelate the coordinates; the
// splitmix64 output finalizer does the rest.
func Derive(seed int64, site uint64, idx int) Stream {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ site*0xbf58476d1ce4e5b9 ^ uint64(idx)*0x94d049bb133111eb
	return Stream{state: x}
}

// TopSamplerSalt separates an estimator's persistent top-level sampling
// stream (tree/word sampling APIs) from the per-site overlap streams.
const TopSamplerSalt = 0xd1b54a32d192ed03
