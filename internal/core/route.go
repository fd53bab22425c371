package core

import (
	"fmt"
	"math/big"

	"pqe/internal/lineage"
	"pqe/internal/montecarlo"
	"pqe/internal/obdd"
	"pqe/internal/pdb"
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

// routeMethods names the method each routed strategy answers with.
var routeMethods = map[router.Strategy]Method{
	router.SafePlan:   MethodSafePlan,
	router.OBDD:       MethodOBDD,
	router.Lineage:    MethodLineage,
	router.MonteCarlo: MethodMonteCarlo,
	router.PathNFA:    MethodFPRASPath,
	router.NFTA:       MethodFPRASTree,
}

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
// counts, which deltas change) and booked to the build phase. Callers
// hold mu.
func (e *Estimator) routeDecision() router.Decision {
	d, _ := e.routeDec.get(func() (d router.Decision, _ error) {
		class, proj := routerClass(e.classification()), e.proj()
		e.timeBuild(func() { d = router.Decide(e.q, proj, class, router.Config{}) })
		return d, nil
	})
	return d
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
	class Classification
	phase phase         // NFTA and PathNFA routes
	proj  *pdb.Database // OBDD and lineage routes
	projH *pdb.Probabilistic
	err   error // construction failure of the chosen route
}

// resolveRoute builds what the decided route needs. Callers hold mu.
func (e *Estimator) resolveRoute(dec router.Decision) routeArtifacts {
	a := routeArtifacts{class: e.classification()}
	switch dec.Strategy {
	case router.NFTA:
		if !a.class.SelfJoinFree || !a.class.BoundedHW {
			a.err = fmt.Errorf("%w: %q (self-join-free=%v, bounded-width=%v)",
				ErrUnsupported, e.q, a.class.SelfJoinFree, a.class.BoundedHW)
		} else {
			a.phase, a.err = e.phase(ShardModePQE)
		}
	case router.PathNFA:
		a.phase, a.err = e.phase(ShardModePathPQE)
	case router.OBDD, router.Lineage:
		a.proj, a.projH = e.proj(), e.projProb()
	}
	return a
}

// evaluateRouted is the body of Evaluate once opts.Strategy is
// resolved: decide the route and resolve its artifacts, emit the
// dispatch telemetry, run the chosen engine, and attribute the trials
// the anytime certificate saved. The saved count is the trial driver's
// own Result of this call — local or sharded — so it is exact when
// concurrent calls share one registry.
func (e *Estimator) evaluateRouted(opts Options) (Result, error) {
	var dec router.Decision
	var art routeArtifacts
	err := e.build(opts, func() (err error) {
		if dec, err = e.decideStrategy(opts.Strategy); err == nil {
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
	if reg != nil {
		reg.Counter("router_dispatch_total").Inc()
		reg.Counter("router_dispatch_" + string(dec.Strategy) + "_total").Inc()
	}
	res, err := e.runStrategy(dec, art, opts)
	res.Class = art.class
	if reg != nil {
		reg.Counter("router_trials_saved_total").Add(int64(res.trialsSaved))
	}
	res.Reason = dec.Reason
	return res, err
}

// runStrategy executes one routing decision over its resolved
// artifacts; the caller sets the Result's Class.
func (e *Estimator) runStrategy(dec router.Decision, art routeArtifacts, opts Options) (Result, error) {
	switch dec.Strategy {
	case router.SafePlan:
		p, err := safeplan.Evaluate(e.q, e.h)
		if err != nil {
			return Result{}, err
		}
		f, _ := p.Float64()
		return Result{Probability: f, Exact: true, Method: MethodSafePlan}, nil
	case router.OBDD, router.Lineage:
		return e.lineageWMC(dec, art, opts)
	case router.NFTA, router.PathNFA:
		if art.err != nil {
			return Result{}, art.err
		}
		p, saved, err := e.countPhase(opts, art.phase)
		if err != nil {
			return Result{trialsSaved: saved}, err
		}
		return Result{Probability: p.Float(), Method: routeMethods[dec.Strategy], trialsSaved: saved}, nil
	case router.MonteCarlo:
		p := montecarlo.Estimate(e.q, e.h, montecarlo.Options{
			Samples: opts.Samples,
			Seed:    opts.seed(),
		})
		return Result{Probability: p, Method: MethodMonteCarlo}, nil
	default:
		return Result{}, fmt.Errorf("%w: %q (%s)", ErrUnsupported, e.q, dec.Reason)
	}
}

// lineageWMC answers exactly by weighted model counting over the DNF
// lineage: OBDD compilation when the decision asked for it (falling
// back to Shannon expansion — still exact — past the node budget),
// Shannon expansion directly otherwise.
func (e *Estimator) lineageWMC(dec router.Decision, art routeArtifacts, opts Options) (Result, error) {
	sc := e.scope(opts)
	_, span := sc.Span("router.lineage_wmc")
	defer span.End()
	limit := forcedLineageLimit
	if dec.WitnessBound > 0 {
		limit = int(dec.WitnessBound)
	}
	f, err := lineage.Compute(e.q, art.proj, limit)
	if err != nil {
		return Result{}, err
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
	return Result{Probability: pf, Exact: true, Method: method}, nil
}
