package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pqe/internal/flagcheck"
)

func TestRunSingleExperimentText(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-exp", "A2", "-quick"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "A2 — Augmented-NFTA translation") {
		t.Errorf("missing table header: %s", out.String())
	}
}

func TestRunMarkdown(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-exp", "A1", "-quick", "-markdown"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "### A1") || !strings.Contains(out.String(), "| ---") {
		t.Errorf("not markdown: %s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-exp", "E99"}, &out, &errOut); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunJSONBench(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	if err := run([]string{"-json", "-json-dir", dir, "-maxprocs", "2"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	// Each suite's file, with its row count: the workloads at workers=1
	// and again at workers=2 (the shard suite: in process and at 2 and 4
	// worker processes).
	files := map[string]*benchFile{}
	for suite, want := range map[string]int{"countnfta": 8, "countnfa": 10, "churn": 20, "router": 12, "shard": 6} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+suite+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var f benchFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatalf("BENCH_%s.json is not valid JSON: %v", suite, err)
		}
		if f.Suite != suite {
			t.Errorf("BENCH_%s.json: suite = %q", suite, f.Suite)
		}
		if len(f.Results) != want {
			t.Fatalf("%s: got %d results, want %d", suite, len(f.Results), want)
		}
		for _, r := range f.Results {
			if r.Ops <= 0 || r.NsPerOp <= 0 || r.Samples < 1 || r.Samples > maxSamples || r.Ops < r.Samples || r.NsSpread < 0 {
				t.Errorf("%s %s@w%d: implausible measurement %+v", suite, r.Name, r.Workers, r)
			}
		}
		files[suite] = &f
	}

	for _, r := range files["countnfta"].Results {
		if r.Stats["tree_keys"] <= 0 {
			t.Errorf("%s: missing estimator stats: %v", r.Name, r.Stats)
		}
		if r.Stages == nil {
			t.Errorf("%s: missing stage breakdown", r.Name)
		}
	}
	for _, r := range files["countnfa"].Results {
		if r.Stats["word_keys"] <= 0 || r.Stats["union_samples"] <= 0 {
			t.Errorf("%s: missing engine stats: %v", r.Name, r.Stats)
		}
		if r.Stages == nil {
			t.Errorf("%s: missing stage breakdown", r.Name)
		}
	}

	checkChurnRows(t, files["churn"].Results)

	rf := files["router"]
	for _, r := range rf.Results {
		switch {
		case strings.HasPrefix(r.Name, "ForcedFPRAS/"):
			if r.Exact || r.TrialsPerOp <= 0 {
				t.Errorf("%s: forced FPRAS row not sampled: %+v", r.Name, r)
			}
		case strings.HasPrefix(r.Name, "Routed/wide_fpras/"):
			if r.Exact || r.TrialsPerOp <= 0 {
				t.Errorf("%s: wide workload not routed to sampling: %+v", r.Name, r)
			}
		default: // Routed hierarchical and small-lineage rows.
			if !r.Exact || r.TrialsPerOp != 0 {
				t.Errorf("%s: expected an exact route with no trials: %+v", r.Name, r)
			}
		}
	}
	// The router's headline contract on the mixed workload.
	if rf.RoutedSpeedupGeomean < 2 {
		t.Errorf("routed speedup geomean %.2f, want ≥ 2", rf.RoutedSpeedupGeomean)
	}
	// Anytime stopping must never spend more trials than the forced
	// fixed schedule on the same workload.
	trials := make(map[string]int64, len(rf.Results))
	for _, r := range rf.Results {
		trials[fmt.Sprintf("%s@w%d", r.Name, r.Workers)] = r.TrialsPerOp
	}
	for key, routed := range trials {
		if !strings.HasPrefix(key, "Routed/wide_fpras/") {
			continue
		}
		forced, ok := trials[strings.Replace(key, "Routed/", "ForcedFPRAS/", 1)]
		if !ok {
			t.Errorf("%s has no forced counterpart", key)
			continue
		}
		if routed > forced {
			t.Errorf("%s executed %d trials, forced schedule only %d", key, routed, forced)
		}
	}

	// The distributed contract, gated on the committed artifact itself:
	// every sharded row reproduces its workload's in-process baseline
	// estimate bit for bit.
	sf := files["shard"]
	baselineBits := map[string]uint64{}
	for _, r := range sf.Results {
		if r.Workers == 0 {
			baselineBits[r.Name] = r.EstimateBits
		}
	}
	for _, r := range sf.Results {
		if r.Workers == 0 {
			if r.TrialsPerOp != 0 {
				t.Errorf("%s: baseline row reports dispatched trials: %+v", r.Name, r)
			}
			continue
		}
		if r.TrialsPerOp != int64(sf.Trials) {
			t.Errorf("%s@w%d: dispatched %d trials per op, want %d", r.Name, r.Workers, r.TrialsPerOp, sf.Trials)
		}
		base, ok := baselineBits[r.Name]
		if !ok {
			t.Errorf("%s@w%d has no baseline row", r.Name, r.Workers)
			continue
		}
		if r.EstimateBits != base {
			t.Errorf("%s@w%d: estimate bits %#x != baseline %#x: not bit-identical",
				r.Name, r.Workers, r.EstimateBits, base)
		}
	}
}

// TestMain lets a re-executed test binary serve as a shard worker
// subprocess for the shard suite (see shardproc.go).
func TestMain(m *testing.M) {
	maybeShardWorker()
	os.Exit(m.Run())
}

func TestRunRejectsBadNumericFlags(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"maxprocs", []string{"-maxprocs", "-1"}},
		{"maxprocs", []string{"-maxprocs", "0"}},
		{"shard-workers", []string{"-shard-workers", "0"}},
		{"shard-workers", []string{"-shard-workers", "-2"}},
	} {
		var out, errOut strings.Builder
		err := run(append(c.args, "-exp", "A1", "-quick"), &out, &errOut)
		var fe *flagcheck.Error
		if !errors.As(err, &fe) {
			t.Errorf("%v: run = %v, want *flagcheck.Error", c.args, err)
			continue
		}
		if fe.Flag != c.flag {
			t.Errorf("%v: rejected flag %q, want %q", c.args, fe.Flag, c.flag)
		}
	}
}

// TestRunCompareMaxRegressRemovedRow pins the gate fix: with
// -max-regress set, a baseline row that vanished must fail the run,
// not just print a REMOVED line — otherwise renaming a workload
// silently retires its regression gate.
func TestRunCompareMaxRegressRemovedRow(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	write := func(path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldPath, `{"suite":"router","results":[
		{"name":"Shared/row","workers":1,"ns_per_op":100,"allocs_per_op":10},
		{"name":"Old/only","workers":1,"ns_per_op":50,"allocs_per_op":5}]}`)
	write(newPath, `{"suite":"router","results":[
		{"name":"Shared/row","workers":1,"ns_per_op":100,"allocs_per_op":10}]}`)

	var out, errOut strings.Builder
	// Without a gate the removed row is report-only.
	if err := run([]string{"-compare", oldPath, newPath}, &out, &errOut); err != nil {
		t.Fatalf("ungated compare failed: %v", err)
	}
	// With the gate it must fail even though no matched row regressed.
	out.Reset()
	err := run([]string{"-compare", "-max-regress", "0.25", oldPath, newPath}, &out, &errOut)
	if err == nil {
		t.Fatal("removed baseline row passed under -max-regress")
	}
	if !strings.Contains(err.Error(), "baseline row(s) missing") {
		t.Errorf("unexpected error: %v", err)
	}
	if !strings.Contains(out.String(), "REMOVED (baseline only): Old/only (workers=1)") {
		t.Errorf("removed row not reported:\n%s", out.String())
	}
}

// checkChurnRows validates the churn suite's incremental-vs-rebuild
// contract: for the small batch sizes, every incremental/session row
// must beat its rebuild/fresh counterpart on allocations and on the
// median ns/op of its maxSamples samples, which measure took in
// slices alternating with the counterpart's, so background load falls
// on both sides alike. The one carve-out is ChurnPath's ns/op, which
// gets 15% slack: the string pipeline's assembly replays the whole NFA
// every build (symbol numbering follows global fact positions, which
// any churn shifts), so the incremental side only saves the key scan
// and the dirty join lists — a real but single-digit-percent time edge
// that sits inside run-to-run noise. The allocation win stays strict.
func checkChurnRows(t *testing.T, results []row) {
	t.Helper()
	key := func(r row) string { return fmt.Sprintf("%s@w%d", r.Name, r.Workers) }
	rows := make(map[string]row, len(results))
	for _, r := range results {
		rows[key(r)] = r
	}
	for name, inc := range rows {
		base := strings.Replace(strings.Replace(name, "/incremental", "/rebuild", 1), "/session", "/fresh", 1)
		if base == name {
			continue
		}
		full, ok := rows[base]
		if !ok {
			t.Errorf("%s has no %s counterpart", name, base)
			continue
		}
		if !strings.Contains(name, "/n=1/") && !strings.Contains(name, "/n=10/") {
			continue
		}
		if inc.Samples < maxSamples || full.Samples < maxSamples {
			t.Errorf("%s: %d and %s: %d samples, want %d", name, inc.Samples, base, full.Samples, maxSamples)
			continue
		}
		nsBound := full.NsPerOp
		if strings.HasPrefix(name, "ChurnPath/") {
			nsBound += full.NsPerOp * 15 / 100
		}
		if inc.NsPerOp >= nsBound {
			t.Errorf("%s (median %d ns/op, spread %d) did not beat %s (median %d ns/op, spread %d, bound %d ns/op)",
				name, inc.NsPerOp, inc.NsSpread, base, full.NsPerOp, full.NsSpread, nsBound)
		}
		if inc.AllocsPerOp >= full.AllocsPerOp {
			t.Errorf("%s (%d allocs/op) did not beat %s (%d allocs/op)", name, inc.AllocsPerOp, base, full.AllocsPerOp)
		}
	}
}

// TestRunCompareAddedRemoved pins the explicit added/removed row
// reporting: rows without a baseline and baseline rows that vanished
// must both be called out, not silently skipped.
func TestRunCompareAddedRemoved(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	write := func(path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldPath, `{"suite":"churn","results":[
		{"name":"Shared/row","workers":1,"ns_per_op":100,"allocs_per_op":10},
		{"name":"Old/only","workers":1,"ns_per_op":50,"allocs_per_op":5}]}`)
	write(newPath, `{"suite":"churn","results":[
		{"name":"Shared/row","workers":1,"ns_per_op":110,"allocs_per_op":10},
		{"name":"New/only","workers":2,"ns_per_op":70,"allocs_per_op":7}]}`)

	var out, errOut strings.Builder
	if err := run([]string{"-compare", oldPath, newPath}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "ADDED (no baseline): New/only (workers=2): 70 ns/op, 7 allocs/op") {
		t.Errorf("added row not reported:\n%s", got)
	}
	if !strings.Contains(got, "REMOVED (baseline only): Old/only (workers=1)") {
		t.Errorf("removed row not reported:\n%s", got)
	}
	if !strings.Contains(got, "Shared/row") || !strings.Contains(got, "geomean") {
		t.Errorf("matched row or geomean missing:\n%s", got)
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-bogus"}, &out, &errOut); err == nil {
		t.Error("bad flag accepted")
	}
}
