package core

import (
	"fmt"
	"strings"

	"pqe/internal/cq"
	"pqe/internal/pdb"
	"pqe/internal/router"
)

// Report describes how a query would be evaluated, without running the
// (potentially expensive) counting stage: the Table 1 classification,
// the chosen route, and — for the FPRAS route — the decomposition and
// the sizes of every constructed automaton. It is the "query plan" of
// this system.
type Report struct {
	Query         string
	Class         Classification
	Route         Method
	Reason        string // routing rationale (strategy routing only)
	Decomposition string // pretty-printed, FPRAS route only
	// Automaton sizes (FPRAS route only).
	AugSize          int // augmented NFTA encoding size
	AutoStates       int // λ-free NFTA states (trimmed)
	AutoTransitions  int
	FinalStates      int // after multiplier expansion (trimmed)
	FinalTransitions int
	TreeSize         int // the counted tree size |D| + Σ Kᵢ
	DigitNodes       int // Σ Kᵢ
	DenominatorBits  int // bit length of ∏ dᵢ
}

// Explain builds the evaluation plan for the query over the instance.
// One-shot wrapper over Estimator.Explain.
func Explain(q *cq.Query, h *pdb.Probabilistic, opts Options) (*Report, error) {
	return NewEstimator(q, h, opts).Explain(opts)
}

// Explain builds the evaluation plan over the session's caches: the
// same automata it constructs here are the ones a following Evaluate
// or PQEEstimate call counts over.
func (e *Estimator) Explain(opts Options) (*Report, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	var r *Report
	err := e.build(opts, func() (err error) {
		r, err = e.explain(opts)
		return err
	})
	return r, err
}

// explain assembles the report; callers hold mu.
func (e *Estimator) explain(opts Options) (*Report, error) {
	class := e.classification()
	r := &Report{Query: e.q.String(), Class: class}
	strategy := opts.Strategy
	if strategy == "" {
		strategy = e.opts.Strategy
	}
	if strategy != "" {
		dec, err := e.decideStrategy(strategy)
		if err != nil {
			return r, err
		}
		r.Reason = dec.Reason
		switch dec.Strategy {
		case router.SafePlan:
			r.Route = MethodSafePlan
			return r, nil
		case router.OBDD:
			r.Route = MethodOBDD
			return r, nil
		case router.Lineage:
			r.Route = MethodLineage
			return r, nil
		case router.MonteCarlo:
			r.Route = MethodMonteCarlo
			return r, nil
		case router.PathNFA:
			r.Route = MethodFPRASPath
			return r, nil
		case router.NFTA:
			// Fall through to the FPRAS plan details below.
		default:
			return r, fmt.Errorf("%w: %q (%s)", ErrUnsupported, e.q, dec.Reason)
		}
	} else {
		if class.Safe && !opts.ForceFPRAS && !e.opts.ForceFPRAS {
			r.Route = MethodSafePlan
			return r, nil
		}
		if !class.SelfJoinFree || !class.BoundedHW {
			return r, fmt.Errorf("%w: %q", ErrUnsupported, e.q)
		}
	}
	r.Route = MethodFPRASTree

	red, err := e.urReduction()
	if err != nil {
		return r, err
	}
	r.Decomposition = red.Dec.String()
	r.AugSize = red.Aug.Size()
	r.AutoStates = red.Auto.NumStates()
	r.AutoTransitions = red.Auto.NumTransitions()

	weighted, err := e.pqeReduction()
	if err != nil {
		return r, err
	}
	r.FinalStates = weighted.Auto.NumStates()
	r.FinalTransitions = weighted.Auto.NumTransitions()
	r.TreeSize = weighted.TreeSize
	r.DigitNodes = weighted.TreeSize - e.proj().Size()
	r.DenominatorBits = weighted.DenProduct.BitLen()
	return r, nil
}

// String renders the report for humans.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query:   %s\n", r.Query)
	fmt.Fprintf(&b, "class:   self-join-free=%v  width=%d (bounded=%v)  safe=%v  path=%v\n",
		r.Class.SelfJoinFree, r.Class.Width, r.Class.BoundedHW, r.Class.Safe, r.Class.Path)
	fmt.Fprintf(&b, "route:   %s\n", r.Route)
	if r.Reason != "" {
		fmt.Fprintf(&b, "reason:  %s\n", r.Reason)
	}
	if r.Route == MethodSafePlan {
		fmt.Fprintf(&b, "         (exact: independent project/join rules; no automaton is built)\n")
		return b.String()
	}
	if r.Route != MethodFPRASTree && r.Route != MethodFPRASPath {
		return b.String()
	}
	if r.Route == MethodFPRASPath {
		fmt.Fprintf(&b, "         (string automaton; Theorem 2 pipeline, no tree machinery)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "decomposition:\n")
	for _, line := range strings.Split(strings.TrimRight(r.Decomposition, "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	fmt.Fprintf(&b, "augmented NFTA size:      %d\n", r.AugSize)
	fmt.Fprintf(&b, "λ-free NFTA (trimmed):    %d states, %d transitions\n", r.AutoStates, r.AutoTransitions)
	fmt.Fprintf(&b, "weighted NFTA (trimmed):  %d states, %d transitions\n", r.FinalStates, r.FinalTransitions)
	fmt.Fprintf(&b, "counted tree size:        %d (= |D| + %d digit nodes)\n", r.TreeSize, r.DigitNodes)
	fmt.Fprintf(&b, "denominator ∏dᵢ:          %d bits\n", r.DenominatorBits)
	return b.String()
}
