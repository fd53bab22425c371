package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	path := filepath.Join(dir, "bench.json")
	nfaPath := filepath.Join(dir, "bench_nfa.json")
	churnPath := filepath.Join(dir, "bench_churn.json")
	routerPath := filepath.Join(dir, "bench_router.json")
	shardPath := filepath.Join(dir, "bench_shard.json")
	var out, errOut strings.Builder
	if err := run([]string{"-json", "-json-out", path, "-json-nfa-out", nfaPath,
		"-json-churn-out", churnPath, "-json-router-out", routerPath,
		"-json-shard-out", shardPath, "-maxprocs", "2"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if f.Suite != "countnfta" {
		t.Errorf("suite = %q", f.Suite)
	}
	// 4 workloads at workers=1 plus 4 at workers=2.
	if len(f.Results) != 8 {
		t.Fatalf("got %d results, want 8", len(f.Results))
	}
	for _, r := range f.Results {
		if r.Ops <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: implausible measurement %+v", r.Name, r)
		}
		if r.Stats == nil || r.Stats.TreeKeys <= 0 {
			t.Errorf("%s: missing estimator stats", r.Name)
		}
	}

	data, err = os.ReadFile(nfaPath)
	if err != nil {
		t.Fatal(err)
	}
	var nf nfaBenchFile
	if err := json.Unmarshal(data, &nf); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if nf.Suite != "countnfa" {
		t.Errorf("suite = %q", nf.Suite)
	}
	// 5 workloads at workers=1 plus 5 at workers=2.
	if len(nf.Results) != 10 {
		t.Fatalf("got %d results, want 10", len(nf.Results))
	}
	for _, r := range nf.Results {
		if r.Ops <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: implausible measurement %+v", r.Name, r)
		}
		if r.Stats == nil || r.Stats.WordKeys <= 0 || r.Stats.UnionSamples <= 0 {
			t.Errorf("%s: missing engine stats: %+v", r.Name, r.Stats)
		}
	}

	data, err = os.ReadFile(churnPath)
	if err != nil {
		t.Fatal(err)
	}
	var cf benchFile
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if cf.Suite != "churn" {
		t.Errorf("suite = %q", cf.Suite)
	}
	// Every churn workload comes in an incremental/session row and a
	// rebuild/fresh row; the incremental side must win on allocations
	// for the small batch sizes, and on time too wherever the savings
	// are a structural share of the build — the PR's contract. The one
	// carve-out is ChurnPath's ns/op: the string pipeline's assembly
	// replays the whole NFA every build (symbol numbering follows
	// global fact positions, which any churn shifts), so the
	// incremental side only saves the key scan and the dirty join
	// lists — a real but single-digit-percent time edge that sits
	// inside run-to-run noise. There it must merely stay within 15% of
	// the rebuild; the allocation win stays strict.
	//
	// The ns comparisons measure wall time, and one 300 ms timing per
	// side loses its margin when the whole test suite shares the CPUs.
	// So the suite runs churnSamples times and the gate compares the
	// per-row medians; the allocation counts are load-immune and gate
	// on the first run alone.
	samples := [][]benchRecord{cf.Results}
	for k := 1; k < churnSamples; k++ {
		p := filepath.Join(dir, fmt.Sprintf("bench_churn_%d.json", k))
		if err := runJSONBenchChurn(p, cf.Epsilon, cf.Seed, 2, &out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var more benchFile
		if err := json.Unmarshal(data, &more); err != nil {
			t.Fatalf("not valid JSON: %v", err)
		}
		samples = append(samples, more.Results)
	}
	checkChurnRows(t, samples)

	data, err = os.ReadFile(routerPath)
	if err != nil {
		t.Fatal(err)
	}
	var rf routerBenchFile
	if err := json.Unmarshal(data, &rf); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if rf.Suite != "router" {
		t.Errorf("suite = %q", rf.Suite)
	}
	// 3 workloads × 2 modes at workers=1 plus the same at workers=2.
	if len(rf.Results) != 12 {
		t.Fatalf("got %d results, want 12", len(rf.Results))
	}
	for _, r := range rf.Results {
		if r.Ops <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: implausible measurement %+v", r.Name, r)
		}
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

	data, err = os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	var sf shardBenchFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if sf.Suite != "shard" {
		t.Errorf("suite = %q", sf.Suite)
	}
	// 2 workloads × (in-process baseline + worker counts 2 and 4).
	if len(sf.Results) != 6 {
		t.Fatalf("got %d shard results, want 6", len(sf.Results))
	}
	// The distributed contract, gated on the committed artifact itself:
	// every sharded row reproduces its workload's in-process baseline
	// estimate bit for bit.
	baselineBits := map[string]uint64{}
	for _, r := range sf.Results {
		if r.Workers == 0 {
			baselineBits[r.Name] = r.EstimateBits
		}
	}
	for _, r := range sf.Results {
		if r.Ops <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s@w%d: implausible measurement %+v", r.Name, r.Workers, r)
		}
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

// churnSamples is how many runs of the churn suite TestRunJSONBench
// takes; the time gate compares per-row medians across them.
const churnSamples = 9

// checkChurnRows validates the churn suite's incremental-vs-rebuild
// contract over repeated runs of the suite: for the small batch sizes,
// every incremental/session row must beat its rebuild/fresh
// counterpart on allocations in the first run, and on the median
// ns/op across the runs — except ChurnPath's ns/op, which gets 15%
// slack: its assembly replays the whole NFA (symbol numbering follows
// global fact positions, which any churn shifts), so the incremental
// side only saves the key scan and the dirty join lists, a
// single-digit-percent edge inside run-to-run noise.
func checkChurnRows(t *testing.T, samples [][]benchRecord) {
	t.Helper()
	key := func(r benchRecord) string { return fmt.Sprintf("%s@w%d", r.Name, r.Workers) }
	rows := make(map[string]benchRecord, len(samples[0]))
	ns := make(map[string][]int64, len(samples[0]))
	for i, results := range samples {
		for _, r := range results {
			if r.Ops <= 0 || r.NsPerOp <= 0 {
				t.Errorf("%s: implausible measurement %+v", r.Name, r)
			}
			if i == 0 {
				rows[key(r)] = r
			}
			ns[key(r)] = append(ns[key(r)], r.NsPerOp)
		}
	}
	median := func(name string) int64 {
		xs := slices.Clone(ns[name])
		slices.Sort(xs)
		return xs[len(xs)/2]
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
		if len(ns[name]) != len(samples) || len(ns[base]) != len(samples) {
			t.Errorf("%s: %d and %s: %d samples, want %d", name, len(ns[name]), base, len(ns[base]), len(samples))
			continue
		}
		incNs, fullNs := median(name), median(base)
		nsBound := fullNs
		if strings.HasPrefix(name, "ChurnPath/") {
			nsBound = fullNs + fullNs*15/100
		}
		if incNs >= nsBound {
			t.Errorf("%s (median %d ns/op of %v) did not beat %s (median %d ns/op of %v, bound %d ns/op)",
				name, incNs, ns[name], base, fullNs, ns[base], nsBound)
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
