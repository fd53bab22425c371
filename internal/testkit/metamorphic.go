package testkit

import (
	"errors"
	"fmt"
	"math/big"
	"strings"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/exact"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/splitmix"
)

// Metamorphic derivation sites (disjoint from the differential sites in
// runner.go).
const (
	siteMonotone uint64 = 0x40 + iota
	siteRebind
	siteWorkers
	siteRelabel
	siteUnion
	siteDelta
	siteRouteDet
	siteAnytime
)

// unionMaxFacts gates the union-bound property: it enumerates the
// combined database of two instances exactly, so 2^(2·unionMaxFacts)
// worlds must stay cheap.
const unionMaxFacts = 8

// RunMetamorphic checks the case against properties that relate runs to
// each other rather than to an oracle — the contracts a differential
// check cannot see. Statistical properties charge b; bit-identity and
// exact properties do not.
func RunMetamorphic(c *Case, cfg Config, b *Budget) error {
	if err := checkMonotone(c); err != nil {
		return fmt.Errorf("monotone: %w", err)
	}
	if err := checkRebind(c, cfg); err != nil {
		return fmt.Errorf("rebind: %w", err)
	}
	if err := checkWorkersIdentity(c, cfg); err != nil {
		return fmt.Errorf("workers: %w", err)
	}
	if err := checkRelabel(c, cfg); err != nil {
		return fmt.Errorf("relabel: %w", err)
	}
	if err := checkUnionBound(c, cfg, b); err != nil {
		return fmt.Errorf("union: %w", err)
	}
	if err := checkDeltaIncremental(c, cfg); err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	if err := checkRouteDeterministic(c, cfg); err != nil {
		return fmt.Errorf("route-deterministic: %w", err)
	}
	if err := checkAnytime(c, cfg, b); err != nil {
		return fmt.Errorf("anytime: %w", err)
	}
	return nil
}

// checkMonotone: raising one fact's probability must not lower the
// exact query probability (PQE is monotone in every fact probability).
// Checked on the oracle — it guards the oracle and the generators, and
// it is the property the shrinker relies on to keep failures failing.
func checkMonotone(c *Case) error {
	if c.H.Size() == 0 {
		return nil
	}
	base, err := exact.PQE(c.Query, c.H)
	if err != nil {
		return err
	}
	s := splitmix.Derive(c.Seed, siteMonotone, c.Index)
	i := int(s.Uint64() % uint64(c.H.Size()))
	p := c.H.ProbAt(i).Rat()
	// Raise halfway toward 1: (1+p)/2 ≥ p.
	raised := new(big.Rat).Add(p, big.NewRat(1, 1))
	raised.Mul(raised, big.NewRat(1, 2))
	h2 := c.H.WithProb(c.H.DB().Fact(i), pdb.ProbFromRat(raised))
	bumped, err := exact.PQE(c.Query, h2)
	if err != nil {
		return err
	}
	if bumped.Cmp(base) < 0 {
		return fmt.Errorf("raising fact %d's probability %v→%v dropped Pr(Q) %v→%v",
			i, p, raised, base, bumped)
	}
	return nil
}

// checkRebind: an estimator session rebound to new probabilities via
// SetProbabilities must produce bit-identical results to a fresh
// estimator built on the new instance — the session cache must be
// invisible to outputs.
func checkRebind(c *Case, cfg Config) error {
	if c.H.Size() == 0 {
		return nil
	}
	opts := core.Options{Epsilon: cfg.Epsilon, Trials: cfg.Trials, Seed: evalSeed(c, siteRebind, 0), Obs: cfg.Obs}
	est := core.NewEstimator(c.Query, c.H, opts)
	if _, err := est.PQEEstimate(opts); err != nil {
		return skipUnsupported(err)
	}
	s := splitmix.Derive(c.Seed, siteRebind, c.Index)
	i := int(s.Uint64() % uint64(c.H.Size()))
	h2 := c.H.WithProb(c.H.DB().Fact(i), pdb.ProbFromRat(big.NewRat(1, 3)))
	if err := est.SetProbabilities(h2); err != nil {
		return err
	}
	rebound, err := est.PQEEstimate(opts)
	if err != nil {
		return err
	}
	fresh, err := core.PQEEstimate(c.Query, h2, opts)
	if err != nil {
		return err
	}
	if rebound != fresh {
		return fmt.Errorf("rebound session %g != fresh estimator %g", rebound, fresh)
	}
	return nil
}

// checkWorkersIdentity: for a fixed seed, results must be bit-identical
// across every MaxProcs setting — the documented contract of the
// unified scheduler over deterministic per-sample splitmix streams.
func checkWorkersIdentity(c *Case, cfg Config) error {
	base := core.Options{Epsilon: cfg.Epsilon, Trials: cfg.Trials, Seed: evalSeed(c, siteWorkers, 0), Obs: cfg.Obs}
	ref, err := core.PQEEstimate(c.Query, c.H, base)
	if err != nil {
		return skipUnsupported(err)
	}
	for _, procs := range []int{1, 2, 3, 4, 8} {
		opts := base
		opts.MaxProcs = procs
		got, err := core.PQEEstimate(c.Query, c.H, opts)
		if err != nil {
			return err
		}
		if got != ref {
			return fmt.Errorf("MaxProcs=%d gives %g, sequential gives %g", procs, got, ref)
		}
	}
	return nil
}

// checkRelabel: consistently renaming every constant must not change
// the estimate at all. Constants never enter an ordering the engines
// depend on — fact order is insertion order, and the renaming is
// order-preserving — so the runs are bit-identical, not just close.
func checkRelabel(c *Case, cfg Config) error {
	relabeled := pdb.Empty()
	rename := func(s string) string { return "k_" + strings.ToUpper(s) }
	for i, f := range c.H.DB().Facts() {
		args := make([]string, len(f.Args))
		for j, a := range f.Args {
			args[j] = rename(a)
		}
		relabeled.Add(pdb.Fact{Relation: f.Relation, Args: args}, c.H.ProbAt(i))
	}
	opts := core.Options{Epsilon: cfg.Epsilon, Trials: cfg.Trials, Seed: evalSeed(c, siteRelabel, 0), Obs: cfg.Obs}
	ref, err := core.PQEEstimate(c.Query, c.H, opts)
	if err != nil {
		return skipUnsupported(err)
	}
	got, err := core.PQEEstimate(c.Query, relabeled, opts)
	if err != nil {
		return err
	}
	if got != ref {
		return fmt.Errorf("constant relabeling changed the estimate: %g vs %g", got, ref)
	}
	return nil
}

// checkUnionBound: for the case query Q1 and a derived second query Q2
// over disjoint relations, exact probabilities must satisfy both
// max(p1,p2) ≤ Pr(Q1∨Q2) and inclusion–exclusion's upper bound
// p1+p2 ≥ Pr(Q1∨Q2), and EvaluateUnion's estimate must agree with the
// exact union probability within tolerance. Gated to tiny instances:
// the union oracle enumerates the combined database.
func checkUnionBound(c *Case, cfg Config, b *Budget) error {
	if c.H.Size() > unionMaxFacts {
		return nil
	}
	// Q2: a one-atom query over a fresh relation, with its own facts.
	q2 := cq.New(cq.NewAtom("Zu", "x"))
	s := splitmix.Derive(c.Seed, siteUnion, c.Index)
	combined := pdb.Empty()
	for i, f := range c.H.DB().Facts() {
		combined.Add(f, c.H.ProbAt(i))
	}
	h2 := pdb.Empty()
	for i := 0; i < 2; i++ {
		f := pdb.NewFact("Zu", fmt.Sprintf("w%d", i))
		p := pdb.ProbFromRat(big.NewRat(int64(1+s.Uint64()%3), 4))
		h2.Add(f, p)
		combined.Add(f, p)
	}
	p1, err := exact.PQE(c.Query, c.H)
	if err != nil {
		return err
	}
	p2, err := exact.PQE(q2, h2)
	if err != nil {
		return err
	}
	pu, err := exact.PQEUnion([]*cq.Query{c.Query, q2}, combined)
	if err != nil {
		return err
	}
	lo := new(big.Rat).Set(p1)
	if p2.Cmp(lo) > 0 {
		lo.Set(p2)
	}
	hi := new(big.Rat).Add(p1, p2)
	if pu.Cmp(lo) < 0 || pu.Cmp(hi) > 0 {
		return fmt.Errorf("exact union %v outside [max=%v, sum=%v]", pu, lo, hi)
	}

	var lastErr error
	for a := 0; a <= cfg.Retries; a++ {
		opts := core.Options{Epsilon: cfg.Epsilon, Trials: cfg.Trials, Seed: evalSeed(c, siteUnion, a), Obs: cfg.Obs}
		est, err := core.EvaluateUnion([]*cq.Query{c.Query, q2}, combined, opts)
		if err != nil {
			lastErr = err
			break
		}
		lastErr = CheckRel(pu, est, cfg.Tolerance())
		if lastErr == nil {
			break
		}
	}
	if lastErr != nil && skipUnsupported(lastErr) == nil {
		return nil
	}
	b.Charge(cfg.checkDelta())
	if lastErr != nil {
		return lastErr
	}
	return nil
}

// checkRouteDeterministic: under Strategy auto the routing decision is
// a pure function of (query, database) — a repeat run through a fresh
// session picks the same strategy for the same reason and returns the
// bit-identical probability, and so does every MaxProcs setting,
// extending the workers-identity contract through the dispatch layer.
func checkRouteDeterministic(c *Case, cfg Config) error {
	opts := core.Options{Epsilon: cfg.Epsilon, Trials: cfg.Trials,
		Seed: evalSeed(c, siteRouteDet, 0), Strategy: "auto", Obs: cfg.Obs}
	ref, err := core.Evaluate(c.Query, c.H, opts)
	if err != nil {
		return skipUnsupported(err)
	}
	again, err := core.Evaluate(c.Query, c.H, opts)
	if err != nil {
		return err
	}
	if again.Method != ref.Method || again.Reason != ref.Reason {
		return fmt.Errorf("routing changed between runs: %v (%q) vs %v (%q)",
			again.Method, again.Reason, ref.Method, ref.Reason)
	}
	if again.Probability != ref.Probability {
		return fmt.Errorf("repeat run gives %g, first gave %g", again.Probability, ref.Probability)
	}
	for _, procs := range []int{2, 8} {
		o := opts
		o.MaxProcs = procs
		got, err := core.Evaluate(c.Query, c.H, o)
		if err != nil {
			return err
		}
		if got.Probability != ref.Probability || got.Method != ref.Method {
			return fmt.Errorf("MaxProcs=%d gives %g via %v, base %g via %v",
				procs, got.Probability, got.Method, ref.Probability, ref.Method)
		}
	}
	return nil
}

// Anytime check knobs: a trial cap high enough that the δ-derived
// floor (≈13 trials at δ=1e-7) leaves the certificate room to stop
// early while still being capped by the fixed schedule.
const (
	anytimeDelta  = 1e-7
	anytimeTrials = 15
)

// anytimeTolerance is the relative error an early-stopped run
// guarantees with failure probability ≤ δ: every kept trial sits
// within the stopping band of a (1±ε)-good one, so the median is off
// by at most (1+ε)²/(1−ε) − 1.
func anytimeTolerance(eps float64) float64 {
	return (1+eps)*(1+eps)/(1-eps) - 1
}

// checkAnytime: a sequentially-stopped estimate must stay inside the
// (ε, δ) envelope its certificate promises — charged to the budget at
// exactly δ — and must never execute more trials than the fixed
// schedule it is capped by; the trials it skips must be accounted as
// saved.
func checkAnytime(c *Case, cfg Config, b *Budget) error {
	exactP, err := exact.PQE(c.Query, c.H)
	if err != nil {
		return err
	}
	seed := evalSeed(c, siteAnytime, 0)
	regA := obs.NewRegistry()
	vA, err := core.PQEEstimate(c.Query, c.H, core.Options{Epsilon: cfg.Epsilon, Trials: anytimeTrials,
		Delta: anytimeDelta, Seed: seed, Obs: obs.NewScope(nil, regA, nil)})
	if err != nil {
		return skipUnsupported(err)
	}
	regF := obs.NewRegistry()
	if _, err := core.PQEEstimate(c.Query, c.H, core.Options{Epsilon: cfg.Epsilon, Trials: anytimeTrials,
		Seed: seed, Obs: obs.NewScope(nil, regF, nil)}); err != nil {
		return err
	}
	ran := regA.Counter("countnfta_trials_total").Value()
	fixed := regF.Counter("countnfta_trials_total").Value()
	if ran > fixed {
		return fmt.Errorf("anytime executed %d trials, fixed schedule %d", ran, fixed)
	}
	if saved := regA.Counter("countnfta_trials_saved_total").Value(); ran+saved != fixed {
		return fmt.Errorf("executed %d + saved %d trials ≠ fixed schedule %d", ran, saved, fixed)
	}
	b.Charge(anytimeDelta)
	if err := CheckRel(exactP, vA, anytimeTolerance(cfg.Epsilon)); err != nil {
		return fmt.Errorf("early-stopped estimate outside its (ε, δ) envelope: %w", err)
	}
	return nil
}

// skipUnsupported maps core.ErrUnsupported to nil (the engine declined
// the instance; nothing to check) and passes real errors through.
func skipUnsupported(err error) error {
	if errors.Is(err, core.ErrUnsupported) {
		return nil
	}
	return err
}
