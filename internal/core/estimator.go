package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pqe/internal/count"
	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/hypertree"
	"pqe/internal/nfa"
	"pqe/internal/nfta"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/reduction"
	"pqe/internal/router"
	"pqe/internal/safeplan"
	"pqe/internal/trial"
)

// errNoProbabilities refuses the probability methods of a session built
// over a plain database.
var errNoProbabilities = errors.New("core: estimator was built without probabilities")

// BuildStats counts how many times each construction stage actually
// ran. On a fresh Estimator everything starts at zero; repeated
// evaluations on the same Estimator must not grow the
// probability-independent counters, and a SetProbabilities call grows
// only Weightings — the cache-hit contract the tests assert.
//
// Deprecated thin accessor: the counters live in the session's obs
// registry (pqe_build_* names) and this struct is reconstructed from it
// on demand; new call sites should read the registry.
type BuildStats struct {
	// Decompositions counts hypertree decomposition searches.
	Decompositions int
	// URReductions counts Proposition 1 automaton constructions.
	URReductions int
	// PathAutomata counts Section 3 string automaton constructions
	// (including the one trim shared by all counting calls).
	PathAutomata int
	// Weightings counts multiplier-gadget expansions (tree or string),
	// the only stage that reruns when probabilities change.
	Weightings int
	// IncrementalUR counts UR constructions served by an incremental
	// builder rebuild (a subset of URReductions): after an ApplyDelta,
	// only vertices over mutated relations re-enumerate.
	IncrementalUR int
	// IncrementalPath counts path-automaton constructions served by an
	// incremental builder rebuild (a subset of PathAutomata).
	IncrementalPath int
}

// Estimator is a reusable evaluation session for one (query, database)
// pair. It memoizes every probability-independent construction stage —
// the classification, the hypertree decomposition, the Proposition 1
// uniform-reliability automaton, and the Section 3 path automaton
// (trimmed, with its dense transition index warm) — plus the
// probability-dependent multiplier weightings. Repeated estimates, an
// ε- or seed-sweep, or a SampleWorld after a Probability all reuse the
// same artifacts; SetProbabilities invalidates only the weightings, so
// re-evaluating after a probability change skips decomposition and
// automaton construction entirely.
//
// An Estimator is safe for concurrent use: estimates, samples and
// shard ranges may overlap, building each lazy stage once between them
// and counting in parallel; ApplyDelta and SetProbabilities wait for
// in-flight calls and block new ones until they finish.
type Estimator struct {
	// life is the session lifecycle lock. Every public call holds the
	// read side for its whole duration; ApplyDelta and SetProbabilities
	// take the write side, so a delta never changes projDB, h or the
	// builders under a running sampler.
	life sync.RWMutex
	// mu makes lazy construction single-flight. It guards every memo
	// below (version sync, classification, route decision, decomposition,
	// projections, automata, weightings) and the phases binding. Entry
	// points resolve their immutable artifacts under it (see build) and
	// count outside it: automata are read-only once built, and the
	// engines' plans tolerate concurrent callers.
	mu sync.Mutex

	q    *cq.Query
	h    *pdb.Probabilistic // nil for a UR-only session over d
	d    *pdb.Database
	opts Options // construction knobs (MaxWidth); counting knobs come per call

	// sc is the session's telemetry scope. It always has a registry (a
	// private one when opts.Obs is nil) so the pqe_build_* stage counters
	// — the source of truth behind BuildStats — exist unconditionally;
	// tracer and convergence are attached only when the caller provided
	// them.
	sc *obs.Scope

	// phases is the phase sink of the call currently inside the build
	// critical section (nil outside it, or when the caller's scope
	// carries none). Construction stages accrue their wall time and
	// their build kind here, so a service attributes build cost to the
	// request that paid for it — never to one that only waited.
	phases *obs.Phases

	class memo[Classification]

	// routeDec memoizes the auto-routing decision of internal/router.
	// It reads fact counts, so structural invalidation drops it.
	routeDec memo[router.Decision]

	dec memo[*hypertree.Decomposition]

	// srcVersion is the database/instance version the caches were last
	// synchronized to. Public entry points compare it against the live
	// version and drop every database-keyed cache on drift, so mutating
	// the instance behind the session's back degrades to a full rebuild
	// instead of silently stale estimates. ApplyDelta is the fast path
	// that keeps the caches and advances the version.
	srcVersion uint64

	// Probability-independent, keyed to the fact set of d. The builders
	// carry the incremental construction caches across ApplyDelta calls;
	// they are bound to the projDB value and dropped with it.
	projDB   *pdb.Database // d projected to the query's relations
	urb      *reduction.URBuilder
	pathb    *reduction.PathBuilder
	urRed    memo[*reduction.URReduction]
	pathAuto memo[*nfa.NFA] // trimmed PathNFA over projDB

	// Probability-dependent, dropped by SetProbabilities.
	projH      *pdb.Probabilistic
	pqeRed     memo[*reduction.PQEReduction]
	pathPQERed memo[*reduction.PathPQEReduction]
}

// NewEstimator prepares an evaluation session for Q over the
// probabilistic database H. Nothing is built until the first call that
// needs it.
func NewEstimator(q *cq.Query, h *pdb.Probabilistic, opts Options) *Estimator {
	return &Estimator{q: q, h: h, d: h.DB(), opts: opts, sc: sessionScope(opts.Obs), srcVersion: h.Version()}
}

// NewUREstimator prepares a uniform-reliability-only session over a
// plain database (no probabilities; the probability methods error).
func NewUREstimator(q *cq.Query, d *pdb.Database, opts Options) *Estimator {
	return &Estimator{q: q, d: d, opts: opts, sc: sessionScope(opts.Obs), srcVersion: d.Version()}
}

// sessionScope guarantees the estimator a registry: a caller-supplied
// scope is used as-is when it has one; otherwise a private registry is
// bundled with whatever sinks the caller did attach.
func sessionScope(s *obs.Scope) *obs.Scope {
	if s.Registry() != nil {
		return s
	}
	return obs.NewScope(s.Tracer(), obs.NewRegistry(), s.Convergence())
}

// BuildStats returns the construction counters accumulated so far,
// reconstructed from the session registry's pqe_build_* counters.
func (e *Estimator) BuildStats() BuildStats {
	reg := e.sc.Registry()
	return BuildStats{
		Decompositions:  int(reg.Counter("pqe_build_decompositions_total").Value()),
		URReductions:    int(reg.Counter("pqe_build_ur_reductions_total").Value()),
		PathAutomata:    int(reg.Counter("pqe_build_path_automata_total").Value()),
		Weightings:      int(reg.Counter("pqe_build_weightings_total").Value()),
		IncrementalUR:   int(reg.Counter("pqe_build_ur_incremental_total").Value()),
		IncrementalPath: int(reg.Counter("pqe_build_path_incremental_total").Value()),
	}
}

// memo is one lazily built session stage: its value and error, kept
// until reset. Callers hold mu.
type memo[T any] struct {
	val  T
	err  error
	done bool
}

// get returns the memoized stage, building it first if the memo is
// empty.
func (m *memo[T]) get(build func() (T, error)) (T, error) {
	if !m.done {
		m.val, m.err = build()
		m.done = true
	}
	return m.val, m.err
}

// reset empties the memo; the next get rebuilds.
func (m *memo[T]) reset() { *m = memo[T]{} }

// invalidateWeighted drops the probability-dependent caches: the
// projected instance and both weighted reductions.
func (e *Estimator) invalidateWeighted() {
	e.projH = nil
	e.pqeRed.reset()
	e.pathPQERed.reset()
}

// invalidateStructural drops the built automata but keeps the
// incremental builders: the next construction re-derives only the parts
// over relations reported dirty.
func (e *Estimator) invalidateStructural() {
	e.urRed.reset()
	e.pathAuto.reset()
	e.routeDec.reset()
	e.invalidateWeighted()
}

// invalidateAll additionally drops the projection and the builders —
// the full-rebuild path for fact sets the session has no delta trail
// for.
func (e *Estimator) invalidateAll() {
	e.projDB = nil
	e.urb, e.pathb = nil, nil
	e.invalidateStructural()
}

// version returns the live mutation counter of the session's source
// instance.
func (e *Estimator) version() uint64 {
	if e.h != nil {
		return e.h.Version()
	}
	return e.d.Version()
}

// syncVersion degrades gracefully when the instance was mutated behind
// the session's back (not through ApplyDelta or SetProbabilities): any
// version drift drops every database-keyed cache, builders included, so
// the next use rebuilds from scratch rather than serving estimates for
// a database that no longer exists. Callers hold mu or the write side
// of life.
func (e *Estimator) syncVersion() {
	if v := e.version(); v != e.srcVersion {
		e.invalidateAll()
		e.sc.Counter("pqe_estimator_rebuilds_total").Inc()
		e.srcVersion = v
	}
}

// ApplyDelta applies a fact-level delta to the session's database and
// incrementally maintains every cache that can survive it, routing by
// what the delta touches:
//
//   - reweight-only deltas over query relations keep all automata and
//     invalidate just the multiplier weightings (the rebind path);
//   - structural ops (insert/delete) over query relations update the
//     projected database in place, mark the touched relations dirty in
//     the incremental builders, and drop only the built automata — the
//     next estimate re-enumerates only the dirty parts;
//   - ops entirely outside the query's relations invalidate nothing
//     (the |D|-dependent rescaling reads the live size).
//
// The delta is validated against the full instance first and applied
// atomically: on error the database and the session are unchanged.
// Estimates after ApplyDelta are bit-identical to those of a fresh
// session on the same database state with the same options and seed.
func (e *Estimator) ApplyDelta(delta pdb.Delta) (pdb.DeltaSummary, error) {
	e.life.Lock()
	defer e.life.Unlock()
	e.syncVersion()
	var sum pdb.DeltaSummary
	var err error
	if e.h != nil {
		sum, err = e.h.ApplyDelta(delta)
	} else {
		sum, err = e.d.ApplyDelta(delta)
	}
	if err != nil {
		return sum, err
	}
	rels := e.q.RelationSet()
	structural, reweighted := false, false
	for _, op := range delta {
		if !rels[op.Fact.Relation] {
			continue // invisible to the projected pipelines
		}
		switch op.Kind {
		case pdb.DeltaInsert:
			structural = true
			if e.projDB != nil {
				e.projDB.Add(op.Fact)
			}
			e.noteMutation(op.Fact.Relation, false)
		case pdb.DeltaDelete:
			structural = true
			if e.projDB != nil {
				e.projDB.Remove(op.Fact)
			}
			e.noteMutation(op.Fact.Relation, true)
		case pdb.DeltaReweight:
			reweighted = true
		}
	}
	switch {
	case structural:
		e.invalidateStructural()
		e.sc.Counter("pqe_estimator_delta_structural_total").Inc()
	case reweighted:
		e.invalidateWeighted()
		e.sc.Counter("pqe_estimator_rebinds_total").Inc()
	default:
		e.sc.Counter("pqe_estimator_delta_foreign_total").Inc()
	}
	e.srcVersion = e.version()
	return sum, nil
}

// noteMutation forwards a dirty-relation mark to whichever incremental
// builders exist.
func (e *Estimator) noteMutation(rel string, withDelete bool) {
	if e.urb != nil {
		e.urb.NoteMutation(rel, withDelete)
	}
	if e.pathb != nil {
		e.pathb.NoteMutation(rel, withDelete)
	}
}

// SetProbabilities rebinds the session to a new probabilistic database.
// When the new instance has exactly the same facts in the same fact
// ordering, only the multiplier weightings are invalidated (a rebind):
// the decomposition and the base automata are keyed to the fact ordering
// and survive. When the fact set — or its ordering, which the automaton
// constructions encode — differs, every database-keyed cache is dropped
// too (a full rebuild); only the query-keyed stages (classification,
// hypertree decomposition) survive. BuildStats distinguishes the two:
// a rebind grows only Weightings, a rebuild also re-runs URReductions /
// PathAutomata on next use.
func (e *Estimator) SetProbabilities(h *pdb.Probabilistic) error {
	e.life.Lock()
	defer e.life.Unlock()
	if e.h == nil {
		return errNoProbabilities
	}
	if !sameFactOrdering(e.d, h.DB()) {
		e.invalidateAll()
		e.sc.Counter("pqe_estimator_rebuilds_total").Inc()
	} else {
		e.invalidateWeighted()
		e.sc.Counter("pqe_estimator_rebinds_total").Inc()
	}
	e.h = h
	e.d = h.DB()
	e.srcVersion = h.Version()
	return nil
}

// sameFactOrdering reports whether two databases hold the same facts in
// the same insertion order — the condition under which automata built
// over one remain valid for the other.
func sameFactOrdering(a, b *pdb.Database) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i, f := range a.Facts() {
		if !f.Equal(b.Fact(i)) {
			return false
		}
	}
	return true
}

// classification returns the query's Table 1 classification, reusing
// the cached decomposition. Callers hold mu.
func (e *Estimator) classification() Classification {
	c, _ := e.class.get(func() (Classification, error) {
		c := Classification{
			SelfJoinFree: e.q.SelfJoinFree(),
			Safe:         safeplan.IsSafe(e.q),
			Path:         e.q.IsPath(),
		}
		if dec, err := e.decomposition(); err == nil && dec.Width() <= e.maxWidth() {
			c.Width = dec.Width()
			c.BoundedHW = true
		}
		return c, nil
	})
	return c
}

// scope picks the telemetry scope of one call: a per-call override from
// opts when given, the session scope otherwise.
func (e *Estimator) scope(opts Options) *obs.Scope {
	if opts.Obs != nil {
		return opts.Obs
	}
	return e.sc
}

// build runs fn in the construction critical section: under mu, synced
// to the live instance version, with build attribution bound to the
// calling request's phase sink. Entry points resolve every artifact
// they need inside fn and run the counting engines after it returns,
// so concurrent calls wait for each other only while a stage is being
// built; that wait accrues to the waiting call's build phase. Callers
// hold the read side of life.
func (e *Estimator) build(opts Options, fn func() error) error {
	ph := e.scope(opts).PhasesSink()
	t0 := buildStart(ph)
	e.mu.Lock()
	defer e.mu.Unlock()
	buildEnd(ph, t0)
	e.phases = ph
	defer func() { e.phases = nil }()
	e.syncVersion()
	return fn()
}

// countBuild bumps a pqe_build_* stage counter on the session registry
// and labels the calling request's build.
func (e *Estimator) countBuild(counter string, incremental bool) {
	e.sc.Counter(counter).Inc()
	e.phases.NoteBuild(incremental)
}

// stage brackets one construction stage: it bumps the stage's
// pqe_build_* counter, labels the calling request's build, and runs fn
// under span name in the session scope, accruing the stage's wall time
// to the request's build phase. Callers hold mu.
func stage[T any](e *Estimator, counter, name string, fn func(sc *obs.Scope, span *obs.Span) (T, error)) (T, error) {
	e.countBuild(counter, false)
	t0 := buildStart(e.phases)
	sc, span := e.sc.Span(name)
	v, err := fn(sc, span)
	span.End()
	buildEnd(e.phases, t0)
	return v, err
}

// buildStart/buildEnd bracket one construction stage for phase
// attribution. With no sink bound they cost a pointer test and no
// clock read, preserving the disabled-path contract.
func buildStart(ph *obs.Phases) time.Time {
	if ph == nil {
		return time.Time{}
	}
	return time.Now()
}

func buildEnd(ph *obs.Phases, start time.Time) {
	if ph == nil || start.IsZero() {
		return
	}
	ph.Add(obs.PhaseBuild, time.Since(start))
}

func (e *Estimator) maxWidth() int {
	if e.opts.MaxWidth > 0 {
		return e.opts.MaxWidth
	}
	return e.q.Len()
}

func (e *Estimator) decomposition() (*hypertree.Decomposition, error) {
	return e.dec.get(func() (*hypertree.Decomposition, error) {
		return stage(e, "pqe_build_decompositions_total", "pqe.decompose", func(*obs.Scope, *obs.Span) (*hypertree.Decomposition, error) {
			return hypertree.Decompose(e.q)
		})
	})
}

// proj returns the database projected to the query's relations, cached.
// The projection is probability-independent (a fact subset), so it is
// computed once and shared by every pipeline.
func (e *Estimator) proj() *pdb.Database {
	if e.projDB == nil {
		e.projDB = e.d.Project(e.q.RelationSet())
	}
	return e.projDB
}

// projProb returns the probabilistic projection, recomputed after
// SetProbabilities.
func (e *Estimator) projProb() *pdb.Probabilistic {
	if e.projH == nil {
		e.projH = e.h.Project(e.q.RelationSet())
	}
	return e.projH
}

// urReduction returns the cached Proposition 1 automaton over the
// projected database.
func (e *Estimator) urReduction() (*reduction.URReduction, error) {
	return e.urRed.get(func() (*reduction.URReduction, error) {
		if !e.q.SelfJoinFree() {
			return nil, fmt.Errorf("%w: query %q has self-joins", ErrUnsupported, e.q)
		}
		dec, err := e.decomposition()
		if err != nil || dec.Width() > e.maxWidth() {
			return nil, fmt.Errorf("%w: no decomposition of width ≤ %d for %q", ErrUnsupported, e.maxWidth(), e.q)
		}
		return stage(e, "pqe_build_ur_reductions_total", "pqe.build_ur", func(sc *obs.Scope, span *obs.Span) (*reduction.URReduction, error) {
			if e.urb == nil {
				if e.urb, err = reduction.NewURBuilder(e.q, e.proj(), dec); err != nil {
					return nil, err
				}
			} else {
				// The builder carries enumeration caches from the previous
				// build; only vertices over relations dirtied by ApplyDelta
				// re-derive.
				e.countBuild("pqe_build_ur_incremental_total", true)
			}
			red, err := e.urb.Build(sc)
			if red == nil {
				return nil, err
			}
			// The weighting interns its digit symbols into this reduction's
			// interner, which the built automaton shares. Intern them now,
			// while the reduction is still private to the build critical
			// section: once published, concurrent counting (the acceptance
			// index) and decoding read the interner, so it must not be
			// written again. They get the IDs the weighting would give them.
			red.Symbols.Intern(nfta.Digit0)
			red.Symbols.Intern(nfta.Digit1)
			if span != nil {
				span.SetAttr("states", red.Auto.NumStates())
				span.SetAttr("tree_size", red.TreeSize)
			}
			return red, err
		})
	})
}

// pathAutomaton returns the cached, trimmed Section 3 string automaton
// over the projected database. Trimming here means every counting call
// shares one automaton instance — and with it the dense transition
// index the string engine caches on it.
func (e *Estimator) pathAutomaton() (*nfa.NFA, error) {
	return e.pathAuto.get(func() (*nfa.NFA, error) {
		if !e.q.IsPath() || !e.q.SelfJoinFree() {
			return nil, fmt.Errorf("core: PathEstimate needs a self-join-free path query, got %q", e.q)
		}
		return stage(e, "pqe_build_path_automata_total", "pqe.build_path_nfa", func(sc *obs.Scope, _ *obs.Span) (*nfa.NFA, error) {
			if e.pathb == nil {
				var err error
				if e.pathb, err = reduction.NewPathBuilder(e.q, e.proj()); err != nil {
					return nil, err
				}
			} else {
				e.countBuild("pqe_build_path_incremental_total", true)
			}
			m, err := e.pathb.Build()
			if err != nil {
				return nil, err
			}
			_, tspan := sc.Span("pqe.trim_path")
			defer tspan.End()
			return m.Trim(), nil
		})
	})
}

// pqeReduction returns the cached Theorem 1 weighted automaton,
// re-weighting the cached UR reduction on first use after construction
// or SetProbabilities.
func (e *Estimator) pqeReduction() (*reduction.PQEReduction, error) {
	return e.pqeRed.get(func() (*reduction.PQEReduction, error) {
		ur, err := e.urReduction()
		if err != nil {
			return nil, err
		}
		return stage(e, "pqe_build_weightings_total", "pqe.weight_ur", func(*obs.Scope, *obs.Span) (*reduction.PQEReduction, error) {
			return reduction.WeightUR(ur, e.projProb())
		})
	})
}

// pathPQEReduction returns the cached weighted string automaton,
// re-weighting the cached base on first use after construction or
// SetProbabilities. Note the weighted automaton uses the untrimmed
// base: the gadget expansion re-trims after inserting comparators.
func (e *Estimator) pathPQEReduction() (*reduction.PathPQEReduction, error) {
	return e.pathPQERed.get(func() (*reduction.PathPQEReduction, error) {
		base, err := e.pathAutomaton()
		if err != nil {
			return nil, err
		}
		return stage(e, "pqe_build_weightings_total", "pqe.weight_path", func(*obs.Scope, *obs.Span) (*reduction.PathPQEReduction, error) {
			return reduction.WeightPathNFA(e.q, e.projProb(), base)
		})
	})
}

// phase is one row of the mode table: what an FPRAS counting phase
// counts, and the finish rule that turns its count into the answer.
type phase struct {
	mode string
	span string     // the counting span
	tree *nfta.NFTA // the counted automaton: a tree automaton for the
	word *nfa.NFA   // tree modes, a string automaton for the string modes
	n    int        // the counted tree size or word length
	// The answer is count · mul / div. UR modes scale by 2^(|D|−|D'|):
	// facts over relations outside the query are free to be present or
	// absent. PQE modes divide by ∏dᵢ.
	mul, div efloat.E
}

// phase resolves mode's row of the mode table, building its automaton
// — the one switch from a counting mode to what it counts. Callers hold
// mu.
func (e *Estimator) phase(mode string) (phase, error) {
	ph := phase{mode: mode, mul: efloat.One, div: efloat.One}
	if (mode == ShardModePQE || mode == ShardModePathPQE) && e.h == nil {
		return ph, errNoProbabilities
	}
	var err error
	switch mode {
	case ShardModeUR:
		var red *reduction.URReduction
		if red, err = e.urReduction(); err == nil {
			ph.span, ph.tree, ph.n = "pqe.ur_estimate", red.Auto, red.TreeSize
			ph.mul = efloat.Pow2(int64(e.d.Size() - e.proj().Size()))
		}
	case ShardModePath:
		var m *nfa.NFA
		if m, err = e.pathAutomaton(); err == nil {
			ph.span, ph.word, ph.n = "pqe.path_estimate", m, e.proj().Size()
			ph.mul = efloat.Pow2(int64(e.d.Size() - ph.n))
		}
	case ShardModePQE:
		var red *reduction.PQEReduction
		if red, err = e.pqeReduction(); err == nil {
			ph.span, ph.tree, ph.n = "pqe.pqe_estimate", red.Auto, red.TreeSize
			ph.div = efloat.FromBigInt(red.DenProduct)
		}
	case ShardModePathPQE:
		var red *reduction.PathPQEReduction
		if red, err = e.pathPQEReduction(); err == nil {
			ph.span, ph.word, ph.n = "pqe.path_pqe_estimate", red.Auto, red.WordSize
			ph.div = efloat.FromBigInt(red.DenProduct)
		}
	default:
		err = fmt.Errorf("core: unknown shard mode %q", mode)
	}
	return ph, err
}

// states is the state count of the phase's automaton.
func (ph phase) states() int {
	if ph.tree != nil {
		return ph.tree.NumStates()
	}
	return ph.word.NumStates()
}

// countPhase runs a resolved phase outside the build critical section,
// under the phase's span, through the call's Sharder when set and the
// local engine otherwise, and finishes the count. It also returns the
// trials the anytime certificate saved. A call cancelled mid-count
// returns its context's error: the counting loop bailed early and its
// value is garbage.
func (e *Estimator) countPhase(opts Options, ph phase) (efloat.E, int, error) {
	sc, span := e.scope(opts).Span(ph.span)
	defer span.End()
	var res trial.Result
	switch {
	case opts.Shard != nil:
		var err error
		if res, err = opts.Shard.CountSharded(sc, e.shardSpec(opts, ph)); err != nil {
			return efloat.Zero, 0, fmt.Errorf("core: sharded %s count: %w", ph.mode, err)
		}
	case ph.tree != nil:
		res = count.Estimate(ph.tree, ph.n, opts.countOptions(sc))
	default:
		res = nfa.Estimate(ph.word, ph.n, opts.countOptions(sc))
	}
	if err := opts.ctxErr(); err != nil {
		return efloat.Zero, res.Saved, err
	}
	return res.Value.Mul(ph.mul).Div(ph.div), res.Saved, nil
}

// estimate is the count body of the direct entry points: it resolves
// mode's phase in the build critical section and counts it. Callers
// hold the read side of life.
func (e *Estimator) estimate(opts Options, mode string) (efloat.E, error) {
	if err := opts.ctxErr(); err != nil {
		return efloat.Zero, err
	}
	var ph phase
	err := e.build(opts, func() (err error) {
		ph, err = e.phase(mode)
		return err
	})
	if err != nil {
		return efloat.Zero, err
	}
	v, _, err := e.countPhase(opts, ph)
	return v, err
}

// PathEstimate approximates UR(Q, D) through the Theorem 2 string
// pipeline, reusing the cached automaton. opts supplies the counting
// knobs for this call.
func (e *Estimator) PathEstimate(opts Options) (efloat.E, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.estimate(opts, ShardModePath)
}

// UREstimate approximates UR(Q, D) through the Theorem 3 tree pipeline,
// reusing the cached reduction.
func (e *Estimator) UREstimate(opts Options) (efloat.E, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	return e.estimate(opts, ShardModeUR)
}

// UniformReliability approximates UR(Q, D), routing self-join-free
// path queries whose query-relation facts are all binary through the
// string pipeline (PathEstimate) and everything else through the tree
// pipeline (UREstimate).
func (e *Estimator) UniformReliability(opts Options) (efloat.E, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	if e.q.IsPath() && e.q.SelfJoinFree() && binaryOnly(e.d, e.q) {
		return e.estimate(opts, ShardModePath)
	}
	return e.estimate(opts, ShardModeUR)
}

// binaryOnly reports whether every fact over the query's relations is
// binary — the string pipeline's input condition.
func binaryOnly(d *pdb.Database, q *cq.Query) bool {
	rels := q.RelationSet()
	for _, f := range d.Facts() {
		if rels[f.Relation] && f.Arity() != 2 {
			return false
		}
	}
	return true
}

// PQEEstimate approximates Pr_H(Q) (Theorem 1), reusing every cached
// stage.
func (e *Estimator) PQEEstimate(opts Options) (float64, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	p, err := e.estimate(opts, ShardModePQE)
	return p.Float(), err
}

// PathPQEEstimate approximates Pr_H(Q) through the string pipeline
// (footnote 2 of §5.1), reusing the cached base automaton.
func (e *Estimator) PathPQEEstimate(opts Options) (float64, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	p, err := e.estimate(opts, ShardModePathPQE)
	return p.Float(), err
}

// Evaluate routes to the best applicable algorithm (the Table 1
// landscape), like the package-level Evaluate but over the session's
// caches. The strategy is the call's, else the session's, else "auto":
// the cost-based router decides, or a forced engine runs
// unconditionally.
//
// Like every entry point, Evaluate resolves all it needs — the
// classification, the decision, the chosen route's automaton — in one
// build critical section, so of several concurrent calls on a cold
// session exactly one builds and the others find everything cached.
func (e *Estimator) Evaluate(opts Options) (Result, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	if e.h == nil {
		return Result{}, errNoProbabilities
	}
	if err := opts.ctxErr(); err != nil {
		return Result{}, err
	}
	opts.Strategy = e.strategy(opts)
	return e.evaluateRouted(opts)
}

// strategy resolves a call's routing strategy: the call's, else the
// session's, else "auto".
func (e *Estimator) strategy(opts Options) string {
	switch {
	case opts.Strategy != "":
		return opts.Strategy
	case e.opts.Strategy != "":
		return e.opts.Strategy
	}
	return "auto"
}

// SampleSatisfying draws a near-uniform satisfying subinstance through
// the cached UR reduction (see the package-level SampleSatisfying). It
// also returns the database's fact ordering the mask indexes, copied
// under the session lock so a later delta cannot reorder it.
func (e *Estimator) SampleSatisfying(opts Options) ([]bool, []pdb.Fact, error) {
	return e.sample(opts, ShardModeUR, func(rng *rand.Rand, _ pdb.Fact) bool {
		return rng.Intn(2) == 0
	})
}

// SampleWorld draws a possible world conditioned on Q through the
// cached weighted reduction (see the package-level SampleWorld),
// returning the fact ordering the mask indexes like SampleSatisfying.
func (e *Estimator) SampleWorld(opts Options) ([]bool, []pdb.Fact, error) {
	return e.sample(opts, ShardModePQE, func(rng *rand.Rand, f pdb.Fact) bool {
		return rng.Float64() < e.h.Prob(f).Float()
	})
}

// sample is the body of SampleSatisfying and SampleWorld: it draws a
// near-uniform tree of the tree mode's automaton, decodes it through the
// UR reduction's bijection, and draws each fact outside the query with
// coin.
func (e *Estimator) sample(opts Options, mode string, coin func(*rand.Rand, pdb.Fact) bool) ([]bool, []pdb.Fact, error) {
	e.life.RLock()
	defer e.life.RUnlock()
	var ph phase
	var red *reduction.URReduction
	var proj *pdb.Database
	err := e.build(opts, func() (err error) {
		if ph, err = e.phase(mode); err == nil {
			red, _ = e.urReduction() // built by the phase
			proj = e.proj()
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	tree := count.SampleTree(ph.tree, ph.n, opts.countOptions(e.scope(opts)))
	if tree == nil {
		return nil, nil, nil
	}
	projMask, err := red.DecodeTree(tree)
	if err != nil {
		return nil, nil, fmt.Errorf("core: sampled tree failed to decode: %w", err)
	}
	rng := rand.New(rand.NewSource(opts.seed() + 0x9e3779b9))
	return liftMask(e.d, proj, projMask, func(f pdb.Fact) bool { return coin(rng, f) }), e.facts(), nil
}

// facts copies the session database's fact ordering. Callers hold the
// read side of life.
func (e *Estimator) facts() []pdb.Fact {
	return append([]pdb.Fact(nil), e.d.Facts()...)
}
