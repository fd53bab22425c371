package core

import (
	"fmt"
	"math/big"
	"os"
	"strconv"
	"testing"
	"time"

	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

// Tracing must be a pure observer: a fully instrumented run returns the
// same bits as a bare run with the same seed, on both pipelines.
func TestObsDoesNotPerturbResults(t *testing.T) {
	q, h := pathInstance(t)
	d := h.DB()
	opts := Options{Epsilon: 0.3, Seed: 11, MaxProcs: 2}
	withObs := opts
	// The instrumented run carries every observational facet at once:
	// sinks, a request ID, a phase accumulator, and a live runtime
	// collector polling the same registry — none may perturb the bits.
	reg := obs.NewRegistry()
	rc := obs.NewRuntimeCollector(reg, time.Millisecond)
	rc.Start()
	defer rc.Stop()
	withObs.Obs = obs.NewScope(obs.NewTracer(), reg, obs.NewConvergence()).
		WithRequestID("determinism-check").
		WithPhases(obs.NewPhases())

	bareUR, err := UREstimate(q, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	tracedUR, err := UREstimate(q, d, withObs)
	if err != nil {
		t.Fatal(err)
	}
	if bareUR != tracedUR {
		t.Errorf("UREstimate drifted under tracing: %v vs %v", bareUR, tracedUR)
	}

	barePath, err := PathEstimate(q, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	tracedPath, err := PathEstimate(q, d, withObs)
	if err != nil {
		t.Fatal(err)
	}
	if barePath != tracedPath {
		t.Errorf("PathEstimate drifted under tracing: %v vs %v", barePath, tracedPath)
	}

	bareP, err := PQEEstimate(q, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	tracedP, err := PQEEstimate(q, h, withObs)
	if err != nil {
		t.Fatal(err)
	}
	if bareP != tracedP {
		t.Errorf("PQEEstimate drifted under tracing: %v vs %v", bareP, tracedP)
	}

	// The phase accumulator actually accrued the builds (the instrumented
	// runs above constructed automata), and the sum of phases never
	// exceeds what was observed — sanity that attribution is live in the
	// very configuration whose determinism was just pinned.
	if withObs.Obs.PhasesSink().Duration(obs.PhaseBuild) <= 0 {
		t.Error("instrumented run accrued no build-phase time")
	}
}

// TestObsDisabledOverhead is the CI bench-smoke lane: with no scope
// attached, the instrumented pipeline must run at the speed of the
// uninstrumented seed. It measures interleaved min-of-K medians of
// disabled-path UREstimate and PathEstimate against a fully
// instrumented run and fails when the *disabled* path is slower than
// the instrumented one by more than the threshold — the disabled path
// costs only nil checks, so any systematic gap is a regression.
//
// Timing comparisons are noisy on shared CI machines, so the lane is
// opt-in: set PQE_OBS_SMOKE=1 (the ci.yml bench-smoke job does). The
// threshold is PQE_OBS_SMOKE_PCT (default 2, in percent) and the check
// retries a few times before failing.
func TestObsDisabledOverhead(t *testing.T) {
	if os.Getenv("PQE_OBS_SMOKE") == "" {
		t.Skip("set PQE_OBS_SMOKE=1 to run the obs overhead smoke lane")
	}
	threshold := 2.0
	if s := os.Getenv("PQE_OBS_SMOKE_PCT"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("PQE_OBS_SMOKE_PCT: %v", err)
		}
		threshold = v
	}

	q := cq.PathQuery("R", 3)
	h := gen.SparsePathInstance(q, 3, 2, gen.ProbHalf, 1)
	d := h.DB()

	workloads := []struct {
		name string
		run  func(sc *obs.Scope, seed int64)
	}{
		{"UREstimate", func(sc *obs.Scope, seed int64) {
			if _, err := UREstimate(q, d, Options{Epsilon: 0.3, Seed: seed, Obs: sc}); err != nil {
				t.Fatal(err)
			}
		}},
		{"PathEstimate", func(sc *obs.Scope, seed int64) {
			if _, err := PathEstimate(q, d, Options{Epsilon: 0.3, Seed: seed, Obs: sc}); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			const retries = 5
			var last string
			for attempt := 0; attempt < retries; attempt++ {
				disabled := minDuration(w.run, nil, 15)
				instr := obs.NewScope(obs.NewTracer(), obs.NewRegistry(), obs.NewConvergence())
				enabled := minDuration(w.run, instr, 15)
				overheadPct := 100 * (float64(disabled) - float64(enabled)) / float64(enabled)
				last = fmt.Sprintf("disabled %v vs instrumented %v (disabled slower by %.2f%%, threshold %.2f%%)",
					disabled, enabled, overheadPct, threshold)
				t.Log(last)
				if overheadPct <= threshold {
					return
				}
			}
			t.Errorf("disabled-instrumentation path regressed: %s", last)
		})
	}
}

// minDuration runs fn k times under each condition interleaved and
// returns the minimum wall time — the least-noise estimate of the
// workload's true cost.
func minDuration(fn func(sc *obs.Scope, seed int64), sc *obs.Scope, k int) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < k; i++ {
		start := time.Now()
		fn(sc, int64(i+1))
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// Attaching a registry flips the engines' timed path (worker busy-time
// accounting); that too must not change results.
func TestObsTimedWorkersDeterministic(t *testing.T) {
	q := cq.PathQuery("R", 3)
	h := pdb.Empty()
	add := func(rel, a, b string, num, den int64) {
		h.Add(pdb.NewFact(rel, a, b), pdb.ProbFromRat(big.NewRat(num, den)))
	}
	add("R1", "a", "b", 1, 2)
	add("R1", "a", "c", 1, 2)
	add("R2", "b", "d", 1, 2)
	add("R2", "c", "d", 1, 2)
	add("R3", "d", "e", 1, 2)
	d := h.DB()

	for _, procs := range []int{1, 4} {
		bare, err := UREstimate(q, d, Options{Epsilon: 0.3, Seed: 3, MaxProcs: procs})
		if err != nil {
			t.Fatal(err)
		}
		sc := obs.NewScope(nil, obs.NewRegistry(), nil)
		timed, err := UREstimate(q, d, Options{Epsilon: 0.3, Seed: 3, MaxProcs: procs, Obs: sc})
		if err != nil {
			t.Fatal(err)
		}
		if bare != timed {
			t.Errorf("MaxProcs=%d: registry-timed run drifted: %v vs %v", procs, bare, timed)
		}
	}
}
