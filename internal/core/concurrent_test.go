package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"
	"sync"
	"testing"

	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

// estimatorOp is one public Estimator call reduced to a comparable
// fingerprint of its result bits.
type estimatorOp struct {
	name string
	run  func(e *Estimator, seed int64) (string, error)
}

func concurrentOps() []estimatorOp {
	fp := func(seed int64) Options { return Options{Epsilon: 0.5, Trials: 3, Seed: seed} }
	return []estimatorOp{
		{"probability", func(e *Estimator, seed int64) (string, error) {
			opts := fp(seed)
			opts.Strategy = "auto"
			res, err := e.Evaluate(opts)
			return fmt.Sprintf("%s %x", res.Method, math.Float64bits(res.Probability)), err
		}},
		{"uniform-reliability", func(e *Estimator, seed int64) (string, error) {
			c, err := e.UniformReliability(fp(seed))
			m, x := c.Bits()
			return fmt.Sprintf("%x %d", m, x), err
		}},
		{"estimate", func(e *Estimator, seed int64) (string, error) {
			p, err := e.PQEEstimate(fp(seed))
			return fmt.Sprintf("%x", math.Float64bits(p)), err
		}},
		{"sample-world", func(e *Estimator, seed int64) (string, error) {
			mask, facts, err := e.SampleWorld(fp(seed))
			return fmt.Sprint(mask, len(facts)), err
		}},
		{"count-trials", func(e *Estimator, seed int64) (string, error) {
			// The plan's geometry comes from the session itself, so a
			// delta between bursts re-resolves it like a coordinator would.
			r, err := e.Explain(Options{Strategy: "force-nfta"})
			if err != nil {
				return "", err
			}
			opts := fp(seed)
			spec := ShardSpec{Mode: ShardModePQE, N: r.TreeSize, States: r.FinalStates, Seed: seed}
			spec.Epsilon, spec.Trials, spec.Samples = opts.countOptions(nil).ResolveSchedule()
			ests, err := e.CountTrials(context.Background(), spec, 0, spec.Trials, 1, nil)
			out := ""
			for _, v := range ests {
				m, x := v.Bits()
				out += fmt.Sprintf("%x:%d ", m, x)
			}
			return out, err
		}},
	}
}

// concurrentSession is one shared-session scenario: an instance and
// the ops its callers race on.
type concurrentSession struct {
	name  string
	route Method // the auto route of the probability op
	inst  func() (*cq.Query, *pdb.Probabilistic)
	ops   []estimatorOp
}

// concurrentSessions covers every auto route a pqed session can take:
// the path instance of the cache tests (small lineage → OBDD), a safe
// star query (safe plan) and a path query too large for the lineage
// route (path-NFA FPRAS). The last one is big enough that the tree
// pipeline ops would dominate the race-detector run, so it races only
// on the routed probability and the string-pipeline UR (the first two ops).
func concurrentSessions(t *testing.T) []concurrentSession {
	ops := concurrentOps()
	return []concurrentSession{
		{"obdd", MethodOBDD, func() (*cq.Query, *pdb.Probabilistic) { return pathInstance(t) }, ops},
		{"safeplan", MethodSafePlan, func() (*cq.Query, *pdb.Probabilistic) {
			q := cq.StarQuery("R", 2)
			return q, gen.Instance(q, gen.Config{FactsPerRelation: 3, DomainSize: 3, Model: gen.ProbRandomRational, Seed: 2})
		}, ops},
		{"nfa", MethodFPRASPath, func() (*cq.Query, *pdb.Probabilistic) {
			q := cq.PathQuery("R", 3)
			return q, gen.Instance(q, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 5})
		}, ops[:2:2]},
	}
}

const concurrentGoroutines = 8

// burst runs every op with a distinct seed per goroutine on the shared
// session, all goroutines at once, and returns fingerprints indexed
// [goroutine][op].
func burst(t *testing.T, est *Estimator, ops []estimatorOp, seedBase int64) [][]string {
	t.Helper()
	out := make([][]string, concurrentGoroutines)
	errs := make([]error, concurrentGoroutines)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = make([]string, len(ops))
			for i, op := range ops {
				fp, err := op.run(est, seedBase+int64(g))
				if err != nil {
					errs[g] = fmt.Errorf("%s: %w", op.name, err)
					return
				}
				out[g][i] = fp
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkAgainstFresh compares a burst with the same calls made serially
// on a fresh Estimator over a copy of h, one per goroutine's seed.
func checkAgainstFresh(t *testing.T, q *cq.Query, h *pdb.Probabilistic, ops []estimatorOp, seedBase int64, got [][]string) {
	t.Helper()
	for g := range got {
		fresh := NewEstimator(q, h.Clone(), Options{})
		for i, op := range ops {
			want, err := op.run(fresh, seedBase+int64(g))
			if err != nil {
				t.Fatalf("%s fresh: %v", op.name, err)
			}
			if got[g][i] != want {
				t.Errorf("%s seed %d: shared session %q, fresh %q", op.name, seedBase+int64(g), got[g][i], want)
			}
		}
	}
}

// TestEstimatorConcurrent pins the concurrency contract: calls on one
// Estimator may overlap, each result is bit-identical to the same call
// on a fresh Estimator run serially, and every lazy stage is built
// exactly once however many callers race for it.
func TestEstimatorConcurrent(t *testing.T) {
	for _, cs := range concurrentSessions(t) {
		ops := cs.ops
		t.Run(cs.name, func(t *testing.T) {
			q, h := cs.inst()
			est := NewEstimator(q, h, Options{})
			got := burst(t, est, ops, 100)
			checkAgainstFresh(t, q, h, ops, 100, got)
			if !strings.HasPrefix(got[0][0], string(cs.route)+" ") {
				t.Errorf("probability op answered %q, want the %s route", got[0][0], cs.route)
			}

			ref := NewEstimator(q, h.Clone(), Options{})
			for _, op := range ops {
				if _, err := op.run(ref, 1); err != nil {
					t.Fatal(err)
				}
			}
			if st, want := est.BuildStats(), ref.BuildStats(); st != want {
				t.Errorf("BuildStats after a concurrent burst = %+v, want one build per stage %+v", st, want)
			}
			if st := est.BuildStats(); st.Decompositions != 1 {
				t.Errorf("BuildStats = %+v: the decomposition was built %d times, want 1", st, st.Decompositions)
			}
		})
	}
}

// TestEstimatorConcurrentDeltas interleaves bursts with ApplyDelta: a
// reweight (rebind) and a structural insert (incremental rebuild).
// After each delta the burst must match fresh sessions over the new
// state, and the session must rebuild each invalidated stage once. A
// final burst races a delta against the callers; each result must then
// match the state before or after it, never a mix.
func TestEstimatorConcurrentDeltas(t *testing.T) {
	ops := concurrentOps()
	q, h := pathInstance(t)
	est := NewEstimator(q, h, Options{})
	ref := NewEstimator(q, h.Clone(), Options{})
	deltas := []pdb.Delta{
		{pdb.Reweight(pdb.NewFact("R1", "a", "b"), pdb.ProbFromRat(big.NewRat(9, 10)))},
		{pdb.Insert(pdb.NewFact("R2", "b", "e"), pdb.ProbFromRat(big.NewRat(2, 5)))},
	}
	for round := 0; round <= len(deltas); round++ {
		if round > 0 {
			if _, err := est.ApplyDelta(deltas[round-1]); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.ApplyDelta(deltas[round-1]); err != nil {
				t.Fatal(err)
			}
		}
		seedBase := int64(200 + 10*round)
		got := burst(t, est, ops, seedBase)
		checkAgainstFresh(t, q, h, ops, seedBase, got)
		for _, op := range ops {
			if _, err := op.run(ref, 1); err != nil {
				t.Fatal(err)
			}
		}
		if st, want := est.BuildStats(), ref.BuildStats(); st != want {
			t.Errorf("round %d: BuildStats %+v, want %+v", round, st, want)
		}
	}

	before := h.Clone()
	racing := pdb.Delta{pdb.Reweight(pdb.NewFact("R3", "d", "e"), pdb.ProbFromRat(big.NewRat(1, 7)))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := est.ApplyDelta(racing); err != nil {
			t.Error(err)
		}
	}()
	// count-trials resolves its geometry and counts in two calls, so a
	// delta landing between them is a legitimate geometry mismatch; it
	// sits out the race.
	ops = ops[:len(ops)-1]
	got := burst(t, est, ops, 300)
	wg.Wait()
	for g := range got {
		for i, op := range ops {
			seed := 300 + int64(g)
			pre, err := op.run(NewEstimator(q, before.Clone(), Options{}), seed)
			if err != nil {
				t.Fatal(err)
			}
			post, err := op.run(NewEstimator(q, h.Clone(), Options{}), seed)
			if err != nil {
				t.Fatal(err)
			}
			if got[g][i] != pre && got[g][i] != post {
				t.Errorf("%s seed %d during a delta: %q matches neither state (%q / %q)", op.name, seed, got[g][i], pre, post)
			}
		}
	}
}

// The first weighting of a session shares its symbol interner with the
// built UR automaton, which concurrent callers read while counting
// (acceptance index) and decoding samples. Under -race this pins that
// the weighting never writes the interner of a published reduction.
func TestEstimatorFirstWeightingRace(t *testing.T) {
	q := cq.StarQuery("R", 2)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 3, DomainSize: 3, Model: gen.ProbRandomRational, Seed: 2})
	opts := Options{Epsilon: 0.5, Trials: 1, Seed: 1}
	for i := 0; i < 20; i++ {
		est := NewEstimator(q, h, Options{})
		var wg sync.WaitGroup
		calls := []func() error{
			func() error { _, err := est.UREstimate(opts); return err },
			func() error { _, err := est.PQEEstimate(opts); return err },
			func() error { _, _, err := est.SampleSatisfying(opts); return err },
		}
		for _, call := range calls {
			wg.Add(1)
			go func(call func() error) {
				defer wg.Done()
				if err := call(); err != nil {
					t.Error(err)
				}
			}(call)
		}
		wg.Wait()
	}
}

// TestRoutedTrialsSavedConcurrent: concurrent routed calls sharing one
// registry add exactly their own saved trials to
// router_trials_saved_total — the sum of what each call saves when it
// runs alone. Each call reports its trial driver's Result, so
// interleaved engine counters cannot leak between calls.
func TestRoutedTrialsSavedConcurrent(t *testing.T) {
	path := cq.PathQuery("R", 3)
	tri := cq.CycleQuery("C", 3)
	sessions := []*Estimator{
		NewEstimator(path, gen.Instance(path, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 13}), Options{}),
		NewEstimator(tri, gen.Instance(tri, gen.Config{FactsPerRelation: 9, DomainSize: 4, Seed: 21}), Options{}),
	}
	const calls = 8
	opts := func(i int, reg *obs.Registry) Options {
		return Options{Epsilon: 0.3, Trials: 15, Seed: int64(i + 1), MaxProcs: 1, Strategy: "auto",
			Obs: obs.NewScope(nil, reg, nil)}
	}
	var want int64
	for i := 0; i < calls; i++ {
		reg := obs.NewRegistry()
		if _, err := sessions[i%2].Evaluate(opts(i, reg)); err != nil {
			t.Fatal(err)
		}
		want += reg.Counter("router_trials_saved_total").Value()
	}
	if want == 0 {
		t.Fatal("no call saved trials; the probe needs anytime stops")
	}
	shared := obs.NewRegistry()
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sessions[i%2].Evaluate(opts(i, shared))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := shared.Counter("router_trials_saved_total").Value(); got != want {
		t.Errorf("concurrent router_trials_saved_total = %d, want the sequential sum %d", got, want)
	}
}

// TestCountTrialsCancelled: a shard worker passes its request's context
// to CountTrials, so a range whose coordinator gave up stops before
// sampling and reports the context's error.
func TestCountTrialsCancelled(t *testing.T) {
	q, h := pathInstance(t)
	e := NewEstimator(q, h, Options{})
	r, err := e.Explain(Options{Strategy: "force-nfta"})
	if err != nil {
		t.Fatal(err)
	}
	spec := ShardSpec{Mode: ShardModePQE, N: r.TreeSize, States: r.FinalStates, Seed: 3}
	spec.Epsilon, spec.Trials, spec.Samples = Options{Epsilon: 0.3}.countOptions(nil).ResolveSchedule()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	conv := obs.NewConvergence()
	ests, err := e.CountTrials(ctx, spec, 0, spec.Trials, 2, obs.NewScope(nil, nil, conv))
	if !errors.Is(err, context.Canceled) || ests != nil {
		t.Fatalf("cancelled CountTrials = (%d estimates, %v), want context.Canceled", len(ests), err)
	}
	if n := len(conv.Snapshot()); n != 0 {
		t.Errorf("cancelled CountTrials ran %d trials", n)
	}
}
