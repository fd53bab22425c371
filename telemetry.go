package pqe

import (
	"io"
	"net/http"
	"time"

	"pqe/internal/obs"
)

// Telemetry collects the pipeline's observability signals for one or
// more evaluations: a hierarchical stage trace (decomposition, automaton
// construction, weighting, trim, every sampling trial), a metrics
// registry (construction counters plus the counting engines' effort
// counters — memo hits and misses, interner sizes, acceptance checks,
// worker utilization), and per-trial convergence records showing the
// median-of-trials estimate stabilize.
//
// Attach one via Options.Telemetry and read it back with the Write*
// methods, or serve it live with ServeDebug. A nil *Telemetry is valid
// everywhere and disables collection. Collection never perturbs the
// estimators' PRNG streams: seeded runs return bit-identical results
// with telemetry attached or not.
//
// A Telemetry may be shared across estimators and across goroutines;
// the sinks are concurrency-safe.
type Telemetry struct {
	tracer *obs.Tracer
	reg    *obs.Registry
	conv   *obs.Convergence
	phases *obs.Phases
}

// NewTelemetry returns an empty telemetry collector with all three
// sinks (trace, metrics, convergence) enabled.
func NewTelemetry() *Telemetry {
	return &Telemetry{
		tracer: obs.NewTracer(),
		reg:    obs.NewRegistry(),
		conv:   obs.NewConvergence(),
		phases: obs.NewPhases(),
	}
}

// scope adapts the collector for the internal pipeline (nil-safe).
func (t *Telemetry) scope() *obs.Scope {
	if t == nil {
		return nil
	}
	return obs.NewScope(t.tracer, t.reg, t.conv).WithPhases(t.phases)
}

// PhaseSeconds returns the per-phase time the pipeline accrued into
// this collector (currently the "build" phase: automaton construction
// triggered by evaluations carrying this Telemetry). Service callers
// attach one collector per request and read the build share of the
// call back out of it. Nil map on a nil collector.
func (t *Telemetry) PhaseSeconds() map[string]float64 {
	if t == nil {
		return nil
	}
	return t.phases.Seconds()
}

// BuildKind labels the session construction the evaluations carrying
// this collector paid for: "full" when one of them built a stage from
// scratch, "incremental" when one patched an ApplyDelta-maintained
// automaton, "cached" when every stage came from the session. Only
// builds these evaluations ran count — an evaluation that waited for a
// concurrent one to finish building the same stage reads "cached" — so
// service callers attach one collector per request. "cached" on a nil
// collector.
func (t *Telemetry) BuildKind() string {
	if t == nil {
		return "cached"
	}
	return t.phases.Build()
}

// CounterValue returns the current value of a registry counter (e.g.
// "router_trials_saved_total"), 0 when absent or on a nil collector.
func (t *Telemetry) CounterValue(name string) int64 {
	if t == nil {
		return 0
	}
	return t.reg.Counter(name).Value()
}

// CaptureAllocs enables heap-allocation deltas on every span. Off by
// default: each capture costs two runtime.ReadMemStats, which is far
// from free on span-dense traces.
func (t *Telemetry) CaptureAllocs(on bool) {
	if t != nil {
		t.tracer.CaptureAllocs(on)
	}
}

// TrialUpdate reports one completed sampling trial of a counting call.
type TrialUpdate struct {
	// Engine is "countnfta" (tree pipeline) or "countnfa" (string
	// pipeline).
	Engine string
	// Call numbers the counting call within this collector; Trial and
	// Trials locate the trial in the call's median-of-trials schedule.
	Call   int64
	Trial  int
	Trials int
	// Epsilon is the call's per-trial target relative error.
	Epsilon float64
	// Log2Estimate is log₂ of the trial's estimate (−Inf when zero) —
	// counts overflow float64, their logarithms don't.
	Log2Estimate float64
	// UnionSamples is the number of overlap samples the trial drew.
	UnionSamples int
	// Elapsed is the trial's wall time.
	Elapsed time.Duration
}

// OnTrial registers a callback fired after every completed sampling
// trial — a live convergence feed. The callback may run on estimator
// worker goroutines (with Options.MaxProcs > 1) and must be fast and
// concurrency-safe. Only one callback is kept; nil unregisters.
func (t *Telemetry) OnTrial(fn func(TrialUpdate)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.conv.OnTrial(nil)
		return
	}
	t.conv.OnTrial(func(r obs.TrialRecord) {
		fn(TrialUpdate{
			Engine:       r.Engine,
			Call:         r.Call,
			Trial:        r.Trial,
			Trials:       r.Trials,
			Epsilon:      r.Epsilon,
			Log2Estimate: r.Log2Estimate,
			UnionSamples: r.UnionSamples,
			Elapsed:      r.Elapsed,
		})
	})
}

// WriteMetricsJSON renders the metrics registry as indented JSON.
func (t *Telemetry) WriteMetricsJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.reg.Snapshot().WriteJSON(w)
}

// WriteMetricsText renders the metrics registry in the Prometheus text
// exposition format.
func (t *Telemetry) WriteMetricsText(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.reg.Snapshot().WritePrometheus(w)
}

// WriteTraceJSON renders the full telemetry state — the span tree over
// every pipeline stage, the per-trial convergence records grouped by
// counting call, and a metrics snapshot — as one JSON document.
func (t *Telemetry) WriteTraceJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	return obs.WriteTrace(w, t.tracer, t.conv, t.reg)
}

// WriteReport renders a compact human-readable report: the span tree
// with durations, then sorted counters and gauges.
func (t *Telemetry) WriteReport(w io.Writer) error {
	if t == nil {
		return nil
	}
	return obs.WriteReport(w, t.tracer, t.reg)
}

// Reset clears the trace and convergence records (the monotonic metric
// counters are kept), so long-lived collectors can bound their memory
// between evaluations. An OnTrial subscription survives Reset —
// including one registered while an evaluation is in flight on another
// goroutine — so a live convergence feed never has to re-register; the
// call numbering also continues, keeping later TrialUpdate.Call values
// distinct from earlier ones.
func (t *Telemetry) Reset() {
	if t == nil {
		return
	}
	t.tracer.Reset()
	t.conv.Reset()
}

// DebugHandler returns an http.Handler exposing the collector live:
// /metrics (Prometheus), /snapshot.json, /trace.json, /debug/vars
// (expvar) and /debug/pprof/* (CPU profiles carry the engines' pprof
// labels pqe_engine / pqe_stage).
func (t *Telemetry) DebugHandler() http.Handler {
	if t == nil {
		return http.NotFoundHandler()
	}
	return obs.Handler(t.tracer, t.reg, t.conv)
}

// ServeDebug starts DebugHandler on addr (":0" picks a free port) in a
// background goroutine and returns the bound address. The server lives
// until the process exits.
func (t *Telemetry) ServeDebug(addr string) (string, error) {
	return obs.Serve(addr, t.DebugHandler())
}
