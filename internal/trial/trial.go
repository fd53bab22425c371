// Package trial is the one driver of the median-of-trials
// confidence-boosting step every FPRAS counting call ends with. The
// union estimator harness both engines run (internal/union) and the
// shard coordinator (internal/shard) run their trials through Run: the
// driver owns the schedule's defaults, the per-trial seeds, the fixed
// or anytime batch boundaries, cancellation between batches, the
// executed/saved counts and the upper-median merge. A caller supplies
// only an Exec that runs trials [lo, hi) and returns their estimates.
//
// The anytime stop rule (stop.go) follows the sequential-estimation
// idea behind the union-of-CQ FPRAS of Arenas et al. ("When is
// Approximate Counting for Conjunctive Queries Tractable?"); see
// stopRule for the statistics.
//
// Determinism: trial t's seed is the t-th draw of a PRNG seeded with
// the schedule's Seed, and batch boundaries and the stop decision are
// pure functions of (ε, δ, Trials) and the per-trial estimates — never
// of wall-clock time, worker count or where a trial ran. Every Exec
// that returns trial t's estimate as a function of (seed t, instance)
// therefore yields the same Result, in-process or sharded.
package trial

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"pqe/internal/efloat"
)

// Schedule is the trial schedule of one counting call. Resolve fills
// the defaults; Run expects a resolved schedule.
type Schedule struct {
	// Epsilon is the target relative error of a single trial, in
	// (0,1). Default 0.1.
	Epsilon float64
	// Trials is the number of independent estimates whose median is
	// returned — the hard cap of an anytime schedule. Default 5.
	Trials int
	// Samples is the number of samples per overlap term; 0 derives
	// max(24, ⌈6/ε²⌉). The rigorous bound of Arenas et al. is polynomial
	// but with constants the paper itself deems impractical (§6); this
	// is the practical stand-in, validated against exact counts in the
	// test suites.
	Samples int
	// Seed seeds the per-trial seed sequence. Default 1.
	Seed int64
	// Anytime runs the trials in deterministic batches (a pure function
	// of (Epsilon, Delta, Trials), never of wall-clock time or worker
	// count) and stops at the earliest batch whose per-trial log₂
	// estimates all agree within the ε-band, once a conservative
	// δ-derived floor of trials has run (stop.go). Trials is the hard
	// cap: when the certificate never fires the call runs exactly the
	// fixed schedule.
	Anytime bool
	// Delta is the anytime certificate's failure-probability target in
	// (0,1); ≤ 0 uses DefaultDelta. Ignored unless Anytime.
	Delta float64
}

// Resolve returns the schedule with every default applied. It is the
// one place the ε/Trials/Samples/Seed defaults live, so a shard
// coordinator and its workers, and both engines, agree on them.
func (s Schedule) Resolve() Schedule {
	if s.Epsilon <= 0 || s.Epsilon >= 1 {
		s.Epsilon = 0.1
	}
	if s.Trials <= 0 {
		s.Trials = 5
	}
	if s.Samples <= 0 {
		s.Samples = int(math.Max(24, math.Ceil(6/(s.Epsilon*s.Epsilon))))
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Seeds returns the schedule's per-trial seeds: trial t's seed is the
// t-th draw of a PRNG seeded with Seed, so it depends on t alone, never
// on which range of trials a caller executes.
func (s Schedule) Seeds() []int64 {
	rng := rand.New(rand.NewSource(s.Seed))
	seeds := make([]int64, s.Trials)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	return seeds
}

// Exec runs trials [lo, hi) of a schedule and returns their estimates
// in trial order.
type Exec func(lo, hi int) ([]efloat.E, error)

// Result is the outcome of one driven schedule.
type Result struct {
	// Value is the upper median of the executed trials' estimates
	// (zero when none ran).
	Value efloat.E
	// Executed is how many trials ran.
	Executed int
	// Saved is how many trials the anytime certificate spared:
	// Trials − Executed when it stopped the schedule, else 0 (a
	// cancelled call saved nothing).
	Saved int
}

// Run drives one schedule through exec. A fixed schedule is one batch
// of all Trials; an anytime schedule runs the stop rule's batches and
// stops at the first batch whose estimates meet the certificate, or at
// the cap. Before each anytime batch Run checks ctx (nil never
// cancels) and stops early when it is done; the value is then
// meaningless, the caller discards it, and no trial counts as saved.
// An exec error ends the run and is returned as is.
func Run(ctx context.Context, s Schedule, exec Exec) (Result, error) {
	rule := stopRule{Cap: s.Trials, Floor: s.Trials}
	if s.Anytime {
		rule = newStopRule(s.Epsilon, s.Delta, s.Trials)
	}
	cancelled := func() bool { return s.Anytime && ctx != nil && ctx.Err() != nil }
	var res Result
	vals := make([]efloat.E, 0, s.Trials)
	log2s := make([]float64, 0, s.Trials)
	for len(vals) < s.Trials && !cancelled() {
		lo := len(vals)
		hi := rule.NextBatch(lo)
		batch, err := exec(lo, hi)
		if err != nil {
			return Result{}, err
		}
		if len(batch) != hi-lo {
			return Result{}, fmt.Errorf("trial: range [%d, %d) returned %d estimates", lo, hi, len(batch))
		}
		vals = append(vals, batch...)
		for _, v := range batch {
			log2s = append(log2s, Log2(v))
		}
		// A batch cut short by cancellation holds zero estimates that
		// must not pass for agreement.
		if s.Anytime && !cancelled() && rule.Stop(log2s) {
			res.Saved = s.Trials - len(vals)
			break
		}
	}
	res.Executed = len(vals)
	if len(vals) > 0 {
		res.Value = efloat.UpperMedian(vals)
	}
	return res, nil
}

// Log2 maps one trial estimate to the log₂ value the stop rule and the
// convergence records read, encoding a zero estimate as -Inf.
func Log2(e efloat.E) float64 {
	if e.IsZero() {
		return math.Inf(-1)
	}
	return e.Log2()
}
