package pqe

import (
	"io"
	"math/big"
	"strings"
	"sync"
	"testing"
)

func starDB(t *testing.T) *Database {
	t.Helper()
	d := NewDatabase()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.AddFact("S1", big.NewRat(1, 2), "a", "b"))
	must(d.AddFact("S1", big.NewRat(1, 2), "a", "c"))
	must(d.AddFact("S2", big.NewRat(1, 2), "a", "d"))
	must(d.AddFact("S3", big.NewRat(2, 3), "a", "e"))
	return d
}

// Telemetry must be an observer: seeded runs return bit-identical
// results with a collector attached or not, on both counting pipelines.
func TestTelemetryDeterminism(t *testing.T) {
	cases := []struct {
		name string
		q    *Query
		db   *Database
	}{
		{"tree", StarQuery("S", 3), starDB(t)},                                  // UREstimate -> countnfta
		{"string", MustParseQuery("R1(x,y), R2(y,z), R3(z,w)"), smallPathDB(t)}, // PathEstimate -> countnfa
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bare, err := UniformReliability(tc.q, tc.db, &Options{Epsilon: 0.4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			tel := NewTelemetry()
			traced, err := UniformReliability(tc.q, tc.db, &Options{Epsilon: 0.4, Seed: 7, Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			if bare.Cmp(traced) != 0 {
				t.Fatalf("telemetry perturbed the estimate: %v (bare) vs %v (traced)", bare, traced)
			}
		})
	}
}

// A trace must cover every pipeline stage of both engines and carry the
// per-trial convergence records, and the metric counters must be
// populated.
func TestTelemetryTraceContents(t *testing.T) {
	tel := NewTelemetry()
	opts := &Options{Epsilon: 0.4, Seed: 3, Telemetry: tel}
	if _, err := UniformReliability(StarQuery("S", 3), starDB(t), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := UniformReliability(MustParseQuery("R1(x,y), R2(y,z), R3(z,w)"), smallPathDB(t), opts); err != nil {
		t.Fatal(err)
	}
	// UR counts subinstances and never weights; a forced-FPRAS
	// probability estimate exercises the multiplier-weighting stage.
	if _, err := Estimate(StarQuery("S", 3), starDB(t), opts); err != nil {
		t.Fatal(err)
	}

	var trace strings.Builder
	if err := tel.WriteTraceJSON(&trace); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{
		"pqe.ur_estimate", "pqe.pqe_estimate", "pqe.decompose", "pqe.build_ur",
		"reduction.translate", "pqe.trim_ur", "pqe.weight_ur", "count.trees",
		"pqe.path_estimate", "pqe.build_path_nfa", "pqe.trim_path", "count.nfa",
		"trial", "convergence", "countnfta", "countnfa",
	} {
		if !strings.Contains(trace.String(), `"`+stage+`"`) {
			t.Errorf("trace JSON missing %q", stage)
		}
	}

	var metrics strings.Builder
	if err := tel.WriteMetricsText(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"pqe_build_decompositions_total", "pqe_build_ur_reductions_total",
		"pqe_build_path_automata_total", "pqe_build_weightings_total",
		"countnfta_trials_total", "countnfta_memo_misses_total",
		"countnfa_trials_total", "countnfa_union_samples_total",
	} {
		if !strings.Contains(metrics.String(), name+" ") {
			t.Errorf("metrics text missing %s", name)
		}
	}

	var report strings.Builder
	if err := tel.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "pqe.ur_estimate") ||
		!strings.Contains(report.String(), "countnfta_trials_total") {
		t.Fatalf("report missing content:\n%s", report.String())
	}

	// Reset clears the trace and convergence but keeps the counters.
	tel.Reset()
	var after strings.Builder
	if err := tel.WriteTraceJSON(&after); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(after.String(), "pqe.ur_estimate") {
		t.Error("Reset left spans behind")
	}
	if !strings.Contains(after.String(), "countnfta_trials_total") {
		t.Error("Reset dropped the metric counters")
	}
}

func TestTelemetryOnTrial(t *testing.T) {
	tel := NewTelemetry()
	var mu sync.Mutex
	var updates []TrialUpdate
	tel.OnTrial(func(u TrialUpdate) {
		mu.Lock()
		updates = append(updates, u)
		mu.Unlock()
	})
	opts := &Options{Epsilon: 0.4, Seed: 5, MaxProcs: 5, Telemetry: tel}
	if _, err := UniformReliability(StarQuery("S", 3), starDB(t), opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(updates) == 0 {
		t.Fatal("OnTrial never fired")
	}
	for _, u := range updates {
		if u.Engine != "countnfta" || u.Trials <= 0 || u.Trial < 0 || u.Trial >= u.Trials || u.Call <= 0 {
			t.Fatalf("malformed trial update: %+v", u)
		}
	}
}

// Reset between evaluations must not disturb an OnTrial subscription:
// the callback keeps firing afterwards (with fresh call numbers), so a
// live convergence feed never has to re-register. Reset is also called
// concurrently with a running evaluation — the subscription must keep
// firing through it.
func TestTelemetryResetKeepsOnTrial(t *testing.T) {
	tel := NewTelemetry()
	var mu sync.Mutex
	var updates []TrialUpdate
	tel.OnTrial(func(u TrialUpdate) {
		mu.Lock()
		updates = append(updates, u)
		mu.Unlock()
	})
	opts := &Options{Epsilon: 0.4, Seed: 5, Telemetry: tel}
	if _, err := UniformReliability(StarQuery("S", 3), starDB(t), opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	before := len(updates)
	var maxCall int64
	for _, u := range updates {
		if u.Call > maxCall {
			maxCall = u.Call
		}
	}
	mu.Unlock()
	if before == 0 {
		t.Fatal("OnTrial never fired before Reset")
	}

	tel.Reset()

	// A concurrent Reset mid-evaluation must not drop the subscription
	// either (the -race lane checks the synchronization).
	done := make(chan struct{})
	go func() {
		defer close(done)
		tel.Reset()
	}()
	if _, err := UniformReliability(StarQuery("S", 3), starDB(t), opts); err != nil {
		t.Fatal(err)
	}
	<-done

	mu.Lock()
	defer mu.Unlock()
	if len(updates) <= before {
		t.Fatal("OnTrial stopped firing after Reset")
	}
	for _, u := range updates[before:] {
		if u.Call <= maxCall {
			t.Fatalf("call numbering restarted after Reset: call %d ≤ earlier max %d", u.Call, maxCall)
		}
	}
}

// A nil collector must be accepted everywhere.
func TestNilTelemetry(t *testing.T) {
	var tel *Telemetry
	tel.CaptureAllocs(true)
	tel.OnTrial(func(TrialUpdate) {})
	tel.Reset()
	if err := tel.WriteMetricsJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteMetricsText(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteTraceJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteReport(io.Discard); err != nil {
		t.Fatal(err)
	}
	if tel.DebugHandler() == nil {
		t.Fatal("nil telemetry DebugHandler returned nil")
	}
	if _, err := UniformReliability(StarQuery("S", 3), starDB(t), &Options{Epsilon: 0.4, Seed: 2, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
}

// A shared session keeps working (and BuildStats keeps counting) when a
// collector is attached per call.
func TestTelemetrySession(t *testing.T) {
	q := MustParseQuery("R1(x,y), R2(y,z), R3(z,w)")
	d := smallPathDB(t)
	tel := NewTelemetry()
	est := NewEstimator(q, d, &Options{Epsilon: 0.4, Seed: 9})
	if _, err := est.UniformReliability(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := est.UniformReliability(&Options{Epsilon: 0.4, Seed: 9, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	st := est.BuildStats()
	if st.PathAutomata != 1 || st.Weightings != 0 {
		t.Fatalf("BuildStats = %+v, want one path automaton, no weighting", st)
	}
	var trace strings.Builder
	if err := tel.WriteTraceJSON(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"count.nfa"`) {
		t.Fatal("per-call telemetry missed the counting stage")
	}
}
