package trial

import "math"

// DefaultDelta is the failure-probability target used when a caller
// enables anytime stopping without choosing δ. It roughly matches the
// amplification the engines' default 5-trial median provides
// (P[Binomial(5, 1/4) ≥ 3] ≈ 0.104).
const DefaultDelta = 0.1

// batchStep is how many extra trials each post-floor batch adds before
// the spread is re-examined.
const batchStep = 2

// stopRule is the sequential-stopping rule of one anytime schedule.
// Each engine trial lands within (1±ε) of the true count with
// probability ≥ 3/4 (the per-trial Chebyshev guarantee the fixed median
// schedule amplifies), and the rule watches the empirical spread of the
// per-trial log₂ estimates:
//
//   - If all executed trials agree within the ε-band
//     band = log₂(1+ε) − log₂(1−ε), the upper median can only miss a
//     (1±ε)-consistent value if *every* trial missed simultaneously —
//     probability ≤ (1/4)^k after k trials. The conservative floor
//     therefore runs at least k ≥ log₄(1/δ) trials (and never fewer
//     than 3, nor an even count) before the certificate may fire, so
//     an early stop carries failure probability ≤ δ.
//   - If the trials disagree, batches keep running up to the fixed
//     trial count (the hard cap), which is exactly the fixed schedule:
//     the guarantee is never weaker than the fixed count's.
//
// A fixed schedule is the rule with Floor = Cap: one batch, no stop.
type stopRule struct {
	// Cap is the hard cap: the fixed trial count. The schedule never
	// exceeds it.
	Cap int
	// Floor is the conservative minimum number of trials executed
	// before the spread certificate may stop the call.
	Floor int
	// Band is the log₂ spread within which all trials must agree for
	// the certificate to fire: log₂(1+ε) − log₂(1−ε).
	Band float64
}

// newStopRule derives the anytime rule for one counting call. epsilon
// is the per-trial relative-error target in (0,1); delta ≤ 0 uses
// DefaultDelta; cap is the fixed trial count.
func newStopRule(epsilon, delta float64, cap int) stopRule {
	if delta <= 0 || delta >= 1 {
		delta = DefaultDelta
	}
	// k trials all missing (1±ε) at once has probability ≤ (1/4)^k;
	// k ≥ log₄(1/δ) drives that below δ. Never fewer than 3, and keep
	// the count odd so the upper median is a single trial.
	floor := int(math.Ceil(math.Log(1/delta) / math.Log(4)))
	if floor < 3 {
		floor = 3
	}
	if floor%2 == 0 {
		floor++
	}
	if floor > cap {
		floor = cap
	}
	return stopRule{
		Cap:   cap,
		Floor: floor,
		Band:  math.Log2(1+epsilon) - math.Log2(1-epsilon),
	}
}

// NextBatch returns the trial count after the next batch given that
// executed trials have already run: the floor first, then batchStep
// more per batch, clamped to the cap.
func (p stopRule) NextBatch(executed int) int {
	next := p.Floor
	if executed >= p.Floor {
		next = executed + batchStep
	}
	if next > p.Cap {
		next = p.Cap
	}
	return next
}

// Stop reports whether the executed trials' log₂ estimates satisfy the
// empirical accuracy certificate: at least Floor trials ran and their
// spread (max − min) is within Band. A zero estimate is encoded as
// -Inf; all-zero trials have spread 0 (they agree the count is zero),
// while a mix of zero and nonzero estimates never stops early.
func (p stopRule) Stop(log2Estimates []float64) bool {
	if len(log2Estimates) < p.Floor {
		return false
	}
	return spread(log2Estimates) <= p.Band
}

// spread returns max − min over the log₂ estimates, treating the
// all-(-Inf) case (every trial estimated zero) as 0 agreement, and any
// zero/nonzero mix as +Inf disagreement.
func spread(log2Estimates []float64) float64 {
	if len(log2Estimates) == 0 {
		return math.Inf(1)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range log2Estimates {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	d := hi - lo
	if math.IsNaN(d) { // (-Inf) − (-Inf): all trials estimated zero
		return 0
	}
	return d
}
