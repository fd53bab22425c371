package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one segment of a request's wall time. The service
// layer attributes every completed request to these four segments so an
// operator can tell queue pressure from build cost from sampling cost
// (see DESIGN.md §15).
type Phase int

const (
	// PhaseQueue is time spent waiting for admission: the budget
	// semaphore plus database/session lock waits.
	PhaseQueue Phase = iota
	// PhaseBuild is automaton/session construction (decomposition, UR
	// reduction, path NFA, weighting — incremental or full).
	PhaseBuild
	// PhaseSample is trial sampling: the estimate call minus its builds.
	PhaseSample
	// PhaseSerialize is response encoding and writing (per-event for
	// SSE streams).
	PhaseSerialize
	// NumPhases is the number of phases (array sizing).
	NumPhases
)

// phaseNames is indexed by Phase.
var phaseNames = [NumPhases]string{"queue", "build", "sample", "serialize"}

// String returns the phase's label value ("queue", "build", "sample",
// "serialize").
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseNames returns the label values for all phases in order.
func PhaseNames() []string { return append([]string(nil), phaseNames[:]...) }

// Phases is a per-request phase accumulator: four atomic nanosecond
// tallies. It is the sink a request handler hands to the engine scope
// so lazily-triggered builds inside the estimate call are attributed to
// PhaseBuild of the request that paid for them. All methods are
// nil-safe no-ops, preserving the package's disabled-path contract.
type Phases struct {
	ns [NumPhases]atomic.Int64
	// full and incremental count the construction stages this request
	// built from scratch and through an incremental builder.
	full, incremental atomic.Int64
}

// NewPhases returns an empty accumulator.
func NewPhases() *Phases { return &Phases{} }

// Add accrues d to phase p. No-op on a nil accumulator or an
// out-of-range phase.
func (ph *Phases) Add(p Phase, d time.Duration) {
	if ph == nil || p < 0 || p >= NumPhases {
		return
	}
	ph.ns[p].Add(int64(d))
}

// Duration returns the accrued time for phase p (0 on nil).
func (ph *Phases) Duration(p Phase) time.Duration {
	if ph == nil || p < 0 || p >= NumPhases {
		return 0
	}
	return time.Duration(ph.ns[p].Load())
}

// Total returns the sum over all phases (0 on nil).
func (ph *Phases) Total() time.Duration {
	if ph == nil {
		return 0
	}
	var t int64
	for i := range ph.ns {
		t += ph.ns[i].Load()
	}
	return time.Duration(t)
}

// NoteBuild records that the request built one construction stage,
// from scratch or incrementally (an ApplyDelta-maintained builder
// re-deriving only its dirty parts). No-op on nil.
func (ph *Phases) NoteBuild(incremental bool) {
	if ph == nil {
		return
	}
	if incremental {
		ph.incremental.Add(1)
	} else {
		ph.full.Add(1)
	}
}

// Build labels the construction this request paid for: "incremental"
// when any stage was patched incrementally, "full" when any stage was
// built from scratch, "cached" when everything came from the session.
// The label reflects only builds the request itself ran, never builds
// by a concurrent request on the same session.
func (ph *Phases) Build() string {
	switch {
	case ph == nil:
		return "cached"
	case ph.incremental.Load() > 0:
		return "incremental"
	case ph.full.Load() > 0:
		return "full"
	default:
		return "cached"
	}
}

// Seconds returns the phase breakdown as a name→seconds map, the form
// the flight recorder and access log carry. Nil on a nil accumulator.
func (ph *Phases) Seconds() map[string]float64 {
	if ph == nil {
		return nil
	}
	m := make(map[string]float64, NumPhases)
	for i := range ph.ns {
		m[Phase(i).String()] = time.Duration(ph.ns[i].Load()).Seconds()
	}
	return m
}

// WithPhases returns a scope that carries ph as its phase sink; derived
// scopes inherit it. On a nil scope the result is nil (phases are only
// meaningful with instrumentation attached).
func (s *Scope) WithPhases(ph *Phases) *Scope {
	if s == nil {
		return nil
	}
	child := *s
	child.phases = ph
	return &child
}

// PhasesSink returns the scope's phase accumulator (nil when absent).
func (s *Scope) PhasesSink() *Phases {
	if s == nil {
		return nil
	}
	return s.phases
}

// AddPhase accrues d to phase p on the scope's accumulator; a no-op
// when the scope or its sink is nil.
func (s *Scope) AddPhase(p Phase, d time.Duration) { s.PhasesSink().Add(p, d) }

// WithRequestID returns a scope carrying the request correlation ID;
// derived scopes inherit it and root spans started from them record it
// as a "request_id" attribute. On a nil scope the result is nil.
func (s *Scope) WithRequestID(id string) *Scope {
	if s == nil || id == "" {
		return s
	}
	child := *s
	child.reqID = id
	return &child
}

// RequestID returns the scope's request correlation ID ("" when none).
func (s *Scope) RequestID() string {
	if s == nil {
		return ""
	}
	return s.reqID
}
