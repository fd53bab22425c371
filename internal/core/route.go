package core

import (
	"fmt"
	"math/big"

	"pqe/internal/lineage"
	"pqe/internal/montecarlo"
	"pqe/internal/obdd"
	"pqe/internal/pdb"
	"pqe/internal/reduction"
	"pqe/internal/router"
	"pqe/internal/safeplan"
)

// forcedLineageLimit caps lineage enumeration when the lineage route is
// forced (under auto routing the witness bound already guarantees a
// small lineage). Well above the auto threshold, as a hard stop against
// runaway enumeration rather than a cost decision.
const forcedLineageLimit = 1 << 20

// maxOBDDNodes bounds OBDD compilation; past it the dispatch falls back
// to Shannon-expansion WMC (still exact).
const maxOBDDNodes = 1 << 17

// routerClass mirrors the classification into the router's input type.
func routerClass(c Classification) router.Class {
	return router.Class{
		SelfJoinFree: c.SelfJoinFree,
		BoundedHW:    c.BoundedHW,
		Safe:         c.Safe,
		Path:         c.Path,
		Width:        c.Width,
	}
}

// routeDecision returns the session's memoized auto-routing decision,
// recomputed after any structural invalidation (the decision reads fact
// counts, which deltas change). Callers hold mu.
func (e *Estimator) routeDecision() router.Decision {
	if e.routeDec == nil {
		d := router.Decide(e.q, e.proj(), routerClass(e.classification()), router.Config{})
		e.routeDec = &d
	}
	return *e.routeDec
}

// decideStrategy resolves the Strategy knob of one Evaluate call into a
// routing decision: the memoized auto decision, or a forced strategy.
// Callers hold mu.
func (e *Estimator) decideStrategy(strategy string) (router.Decision, error) {
	st, err := router.Parse(strategy)
	if err != nil {
		return router.Decision{}, err
	}
	if st == router.Auto {
		return e.routeDecision(), nil
	}
	return router.Decision{
		Strategy:     st,
		Exact:        st == router.SafePlan || st == router.OBDD || st == router.Lineage,
		Reason:       "forced by Strategy option",
		WitnessBound: -1,
	}, nil
}

// routeArtifacts are the session artifacts one routed evaluation runs
// over, resolved in the build critical section.
type routeArtifacts struct {
	class    Classification
	weighted *reduction.PQEReduction     // NFTA route
	pathPQE  *reduction.PathPQEReduction // PathNFA route
	proj     *pdb.Database               // OBDD and lineage routes
	projH    *pdb.Probabilistic
	err      error // construction failure of the chosen route
}

// resolveRoute builds what the decided route needs. Callers hold mu.
func (e *Estimator) resolveRoute(dec router.Decision) routeArtifacts {
	a := routeArtifacts{class: e.classification()}
	switch dec.Strategy {
	case router.NFTA:
		if a.class.SelfJoinFree && a.class.BoundedHW {
			a.weighted, a.err = e.pqeReduction()
		}
	case router.PathNFA:
		a.pathPQE, a.err = e.pathPQEReduction()
	case router.OBDD, router.Lineage:
		a.proj, a.projH = e.proj(), e.projProb()
	}
	return a
}

// evaluateRouted is the strategy-routing arm of Evaluate: resolve the
// decision and its route's artifacts, emit the dispatch telemetry, run
// the chosen engine, and attribute the trials the anytime certificate
// saved (a before/after difference on the call's registry, so exact
// when each call has its own, as pqed's requests do).
func (e *Estimator) evaluateRouted(strategy string, opts Options) (Result, error) {
	var dec router.Decision
	var art routeArtifacts
	err := e.build(opts, func() (err error) {
		if dec, err = e.decideStrategy(strategy); err == nil {
			art = e.resolveRoute(dec)
		}
		return err
	})
	if err != nil {
		return Result{}, err
	}
	sc := e.scope(opts)
	_, span := sc.Span("router.dispatch")
	if span != nil {
		span.SetAttr("strategy", string(dec.Strategy))
		span.SetAttr("reason", dec.Reason)
		span.SetAttr("exact", dec.Exact)
	}
	defer span.End()
	reg := sc.Registry()
	var savedBefore int64
	if reg != nil {
		reg.Counter("router_dispatch_total").Inc()
		reg.Counter("router_dispatch_" + string(dec.Strategy) + "_total").Inc()
		savedBefore = reg.Counter("countnfta_trials_saved_total").Value() +
			reg.Counter("countnfa_trials_saved_total").Value()
	}
	res, err := e.runStrategy(dec, art, opts)
	if reg != nil {
		savedAfter := reg.Counter("countnfta_trials_saved_total").Value() +
			reg.Counter("countnfa_trials_saved_total").Value()
		reg.Counter("router_trials_saved_total").Add(savedAfter - savedBefore)
	}
	res.Reason = dec.Reason
	return res, err
}

// runStrategy executes one routing decision over its resolved
// artifacts.
func (e *Estimator) runStrategy(dec router.Decision, art routeArtifacts, opts Options) (Result, error) {
	class := art.class
	switch dec.Strategy {
	case router.SafePlan:
		p, err := safeplan.Evaluate(e.q, e.h)
		if err != nil {
			return Result{Class: class}, err
		}
		f, _ := p.Float64()
		return Result{Probability: f, Exact: true, Method: MethodSafePlan, Class: class}, nil
	case router.OBDD, router.Lineage:
		return e.lineageWMC(dec, art, opts)
	case router.NFTA:
		if !class.SelfJoinFree || !class.BoundedHW {
			return Result{Class: class}, fmt.Errorf("%w: %q (self-join-free=%v, bounded-width=%v)",
				ErrUnsupported, e.q, class.SelfJoinFree, class.BoundedHW)
		}
		if art.err != nil {
			return Result{Class: class}, art.err
		}
		p, err := e.countPQE(opts, art.weighted)
		if err != nil {
			return Result{Class: class}, err
		}
		return Result{Probability: p, Method: MethodFPRASTree, Class: class}, nil
	case router.PathNFA:
		if art.err != nil {
			return Result{Class: class}, art.err
		}
		p, err := e.countPathPQE(opts, art.pathPQE)
		if err != nil {
			return Result{Class: class}, err
		}
		return Result{Probability: p, Method: MethodFPRASPath, Class: class}, nil
	case router.MonteCarlo:
		p := montecarlo.Estimate(e.q, e.h, montecarlo.Options{
			Samples: opts.Samples,
			Seed:    opts.seed(),
		})
		return Result{Probability: p, Method: MethodMonteCarlo, Class: class}, nil
	default:
		return Result{Class: class}, fmt.Errorf("%w: %q (%s)", ErrUnsupported, e.q, dec.Reason)
	}
}

// lineageWMC answers exactly by weighted model counting over the DNF
// lineage: OBDD compilation when the decision asked for it (falling
// back to Shannon expansion — still exact — past the node budget),
// Shannon expansion directly otherwise.
func (e *Estimator) lineageWMC(dec router.Decision, art routeArtifacts, opts Options) (Result, error) {
	class := art.class
	sc := e.scope(opts)
	_, span := sc.Span("router.lineage_wmc")
	defer span.End()
	limit := forcedLineageLimit
	if dec.WitnessBound > 0 {
		limit = int(dec.WitnessBound)
	}
	f, err := lineage.Compute(e.q, art.proj, limit)
	if err != nil {
		return Result{Class: class}, err
	}
	if span != nil {
		span.SetAttr("clauses", f.NumClauses())
	}
	var p *big.Rat
	method := MethodLineage
	if dec.Strategy == router.OBDD {
		if o, oerr := obdd.CompileDNF(f, maxOBDDNodes); oerr == nil {
			p = o.WMC(art.projH)
			method = MethodOBDD
		} else if reg := sc.Registry(); reg != nil {
			reg.Counter("router_obdd_fallbacks_total").Inc()
		}
	}
	if p == nil {
		p = f.WMCExact(art.projH)
	}
	pf, _ := p.Float64()
	return Result{Probability: pf, Exact: true, Method: method, Class: class}, nil
}
