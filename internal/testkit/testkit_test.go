package testkit

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pqe/internal/obs"
)

var (
	flagSeed  = flag.Int64("testkit.seed", 1, "master seed for the randomized suites")
	flagCases = flag.Int("testkit.cases", 0, "number of cases per suite (0 = 24 short / 96 long, PQE_TESTKIT_CASES overrides)")
	flagCase  = flag.Int("testkit.case", -1, "replay only this case index (-1 = all)")
)

// budgetCap bounds the whole suite's false-failure probability: with it
// holding, a red run is a real bug except one time in 10⁴ suite
// executions — and the defaults leave orders of magnitude of headroom.
const budgetCap = 1e-4

func suiteCases(t *testing.T) []int {
	t.Helper()
	if *flagCase >= 0 {
		return []int{*flagCase}
	}
	n := *flagCases
	if n == 0 {
		if env := os.Getenv("PQE_TESTKIT_CASES"); env != "" {
			v, err := strconv.Atoi(env)
			if err != nil {
				t.Fatalf("PQE_TESTKIT_CASES=%q: %v", env, err)
			}
			n = v
		} else if testing.Short() {
			n = 24
		} else {
			n = 96
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// caseScope builds the per-case telemetry scope the suites thread into
// every engine call: when a case fails, its report carries the stage
// timings and effort counters of the failing run.
func caseScope() *obs.Scope {
	return obs.NewScope(obs.NewTracer(), obs.NewRegistry(), obs.NewConvergence())
}

// fail reports a testkit failure: capture the failing run's telemetry,
// shrink the case, write the repro artifacts if a directory is
// configured, and stop the test with the replayable report.
func fail(t *testing.T, c *Case, err error, sc *obs.Scope, rerun func(*Case) bool) {
	t.Helper()
	// Render telemetry before shrinking: the shrinker's reruns would
	// append their spans to the same scope and bury the failing run's.
	var telemetry strings.Builder
	if sc.Enabled() {
		if werr := obs.WriteReport(&telemetry, sc.Tracer(), sc.Registry()); werr != nil {
			telemetry.Reset()
		}
	}
	min := Shrink(c, rerun)
	report := fmt.Sprintf("%v\n%s", err, min.Repro())
	if telemetry.Len() > 0 {
		report += "\n--- telemetry of the failing run ---\n" + telemetry.String()
	}
	if dir := os.Getenv("PQE_TESTKIT_REPRO_DIR"); dir != "" {
		name := filepath.Join(dir, fmt.Sprintf("repro-seed%d-case%d.txt", c.Seed, c.Index))
		if werr := os.WriteFile(name, []byte(report), 0o644); werr == nil {
			report += "\nrepro written to " + name
		}
		if sc.Enabled() {
			var trace strings.Builder
			if werr := obs.WriteTrace(&trace, sc.Tracer(), sc.Convergence(), sc.Registry()); werr == nil {
				obsName := filepath.Join(dir, fmt.Sprintf("repro-seed%d-case%d-obs.json", c.Seed, c.Index))
				if werr := os.WriteFile(obsName, []byte(trace.String()), 0o644); werr == nil {
					report += "\ntelemetry written to " + obsName
				}
			}
		}
	}
	t.Fatal(report)
}

// TestDifferential is the tentpole: every engine against the exact
// oracles over the randomized case stream.
func TestDifferential(t *testing.T) {
	cfg := Defaults()
	b := &Budget{Cap: budgetCap}
	for _, i := range suiteCases(t) {
		c := NewCase(*flagSeed, i)
		cfg.Obs = caseScope()
		if err := RunDifferential(c, cfg, b); err != nil {
			fail(t, c, err, cfg.Obs, func(cand *Case) bool {
				return RunDifferential(cand, cfg, &Budget{Cap: budgetCap}) != nil
			})
		}
	}
	if !b.Ok() {
		t.Errorf("false-failure budget exceeded: spent %.3g > cap %.3g", b.Spent, b.Cap)
	}
	t.Logf("budget spent %.3g of %.3g", b.Spent, b.Cap)
}

// TestMetamorphic checks the cross-run properties on the same stream.
func TestMetamorphic(t *testing.T) {
	cfg := Defaults()
	b := &Budget{Cap: budgetCap}
	for _, i := range suiteCases(t) {
		c := NewCase(*flagSeed, i)
		cfg.Obs = caseScope()
		if err := RunMetamorphic(c, cfg, b); err != nil {
			fail(t, c, err, cfg.Obs, func(cand *Case) bool {
				return RunMetamorphic(cand, cfg, &Budget{Cap: budgetCap}) != nil
			})
		}
	}
	if !b.Ok() {
		t.Errorf("false-failure budget exceeded: spent %.3g > cap %.3g", b.Spent, b.Cap)
	}
}

// TestDifferentialService cross-checks the HTTP service against direct
// library calls on the same randomized case stream: every case is
// loaded through the public text formats, queried over a real loopback
// listener (one-shot and SSE-streamed), and must agree with the direct
// pqe.Estimator byte for byte — probability bits, routing method and
// reason, and trial count. The name keeps it on the CI and nightly
// -run 'TestDifferential|TestMetamorphic' lanes.
func TestDifferentialService(t *testing.T) {
	cfg := Defaults()
	h := NewServiceHarness()
	defer h.Close()
	var sampled int64
	for _, i := range suiteCases(t) {
		c := NewCase(*flagSeed, i)
		cfg.Obs = caseScope()
		trials, err := RunServiceDifferential(c, cfg, h)
		if err != nil {
			fail(t, c, err, cfg.Obs, func(cand *Case) bool {
				_, err := RunServiceDifferential(cand, cfg, h)
				return err != nil
			})
		}
		sampled += trials
	}
	if sampled == 0 {
		t.Error("no case sampled a trial: the trial-count and SSE-event checks compared nothing")
	}
}

// TestDeltaSoak is the endurance variant of the delta bit-identity
// property: long sessions of interleaved random deltas and estimates,
// each estimate compared against a from-scratch estimator. The short
// default keeps CI fast; the nightly lane raises the step count with
// PQE_TESTKIT_DELTA_STEPS. Failures go through fail(), so the repro —
// including the replayable delta trace in the error — lands in
// PQE_TESTKIT_REPRO_DIR when configured.
func TestDeltaSoak(t *testing.T) {
	steps := 8
	if env := os.Getenv("PQE_TESTKIT_DELTA_STEPS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("PQE_TESTKIT_DELTA_STEPS=%q: %v", env, err)
		}
		steps = v
	} else if testing.Short() {
		steps = 3
	}
	cfg := Defaults()
	for _, i := range suiteCases(t) {
		c := NewCase(*flagSeed, i)
		cfg.Obs = caseScope()
		if err := DeltaSoak(c, cfg, steps); err != nil {
			fail(t, c, err, cfg.Obs, func(cand *Case) bool {
				return DeltaSoak(cand, cfg, steps) != nil
			})
		}
	}
}

// TestConfigObsThreading pins the failure-report contract: a scope in
// Config reaches the engines, so when fail() renders it the trace and
// counters are actually there.
func TestConfigObsThreading(t *testing.T) {
	cfg := Defaults()
	cfg.Obs = caseScope()
	c := NewCase(*flagSeed, 0)
	if err := RunDifferential(c, cfg, &Budget{Cap: budgetCap}); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Obs.Tracer().Roots()) == 0 {
		t.Error("engines recorded no spans through Config.Obs")
	}
	snap := cfg.Obs.Registry().Snapshot()
	if len(snap.Counters) == 0 {
		t.Error("engines recorded no counters through Config.Obs")
	}
	var report strings.Builder
	if err := obs.WriteReport(&report, cfg.Obs.Tracer(), cfg.Obs.Registry()); err != nil {
		t.Fatal(err)
	}
	if report.Len() == 0 {
		t.Error("telemetry report for a completed case is empty")
	}
}

// TestCaseGenerationIsDeterministic pins the replayability contract:
// NewCase is a pure function of (seed, index), including the rendered
// instance a repro report prints.
func TestCaseGenerationIsDeterministic(t *testing.T) {
	for i := 0; i < 16; i++ {
		a, b := NewCase(*flagSeed, i), NewCase(*flagSeed, i)
		if a.Repro() != b.Repro() {
			t.Fatalf("case %d is not deterministic:\n%s\nvs\n%s", i, a.Repro(), b.Repro())
		}
		if a.H.Size() > MaxFacts {
			t.Fatalf("case %d has %d facts > MaxFacts %d", i, a.H.Size(), MaxFacts)
		}
	}
	// Different seeds must actually change the stream (guards against a
	// dropped seed parameter).
	x, y := NewCase(1, 0), NewCase(2, 0)
	if x.Repro() == y.Repro() {
		t.Error("seeds 1 and 2 generate identical case 0")
	}
}

// TestShrinkMinimizes exercises the shrinker on a synthetic predicate:
// "the instance has a fact of relation R1" shrinks to exactly one fact
// and one atom.
func TestShrinkMinimizes(t *testing.T) {
	var c *Case
	for i := 0; ; i++ {
		c = NewCase(*flagSeed, i)
		if len(c.Query.Atoms) > 1 && c.H.Size() > 2 {
			break
		}
	}
	hasFact := func(cand *Case) bool { return cand.H.Size() > 0 && len(cand.Query.Atoms) > 0 }
	min := Shrink(c, hasFact)
	if !min.Shrunk {
		t.Fatal("shrinker did not mark the case shrunk")
	}
	if min.H.Size() != 1 || len(min.Query.Atoms) != 1 {
		t.Errorf("shrunk to %d facts, %d atoms; want 1 and 1", min.H.Size(), len(min.Query.Atoms))
	}
}

// TestConfigDeltaAccounting pins the statistical arithmetic the budget
// rests on (a silent change here weakens every assertion).
func TestConfigDeltaAccounting(t *testing.T) {
	cfg := Defaults()
	d := cfg.checkDelta()
	if d <= 0 || d > 1e-10 {
		t.Errorf("default per-check delta = %g, want (0, 1e-10]", d)
	}
	if tol := cfg.Tolerance(); tol < 0.599 || tol > 0.601 {
		t.Errorf("default tolerance = %v, want ≈0.6", tol)
	}
	if a := cfg.MCTolerance(); a < 0.02 || a > 0.03 {
		t.Errorf("default MC tolerance = %v, want ≈0.023", a)
	}
	if binomial(5, 3) != 10 {
		t.Errorf("binomial(5,3) = %d", binomial(5, 3))
	}
}

// TestDifferentialShard cross-checks distributed evaluation against
// local on the same randomized case stream: each applicable engine is
// run with and without a shard pool at worker counts 1, 2 and 4, and
// must produce bit-identical results. The 4-worker pass kills a worker
// halfway through the suite, so the second half additionally proves
// range reassignment does not perturb a single bit. The name keeps it
// on the CI and nightly -run 'TestDifferential|TestMetamorphic' lanes.
func TestDifferentialShard(t *testing.T) {
	cases := suiteCases(t)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Defaults()
			h, err := NewShardHarness(workers)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			for n, i := range cases {
				if workers == 4 && n == len(cases)/2 {
					h.KillWorker(0)
				}
				c := NewCase(*flagSeed, i)
				cfg.Obs = caseScope()
				if err := RunShardDifferential(c, cfg, h); err != nil {
					fail(t, c, err, cfg.Obs, func(cand *Case) bool {
						return RunShardDifferential(cand, cfg, h) != nil
					})
				}
			}
			if workers == 4 {
				if st := h.Stats(); st.Reassigned == 0 {
					t.Errorf("killed a worker but no range was reassigned: %+v", st)
				}
			}
		})
	}
}
