package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestPlanSeeded checks that a workload's requests are a pure function
// of the seed: the same seed regenerates the same list, another seed a
// different one.
func TestPlanSeeded(t *testing.T) {
	for _, w := range workloads {
		dbs := w.dbs()
		a := w.gen(w, dbs, 1, 2*time.Second)
		b := w.gen(w, dbs, 1, 2*time.Second)
		c := w.gen(w, dbs, 2, 2*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated two different plans", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same plan", w.name)
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json names exactly the
// metrics a run reports, with the same units.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		code   []metricDef
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(c.listed) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.code))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), the benchmark reports %s (%s)",
					i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %s, the benchmark has %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsBrief runs every workload for a short window, untraced
// and traced, and checks the report: every metric present with its
// unit, no failed request or wrong answer, nothing shed, the router
// reaching exactly the workload's intended routes, a replay that
// reproduces every served answer, and the layer separation each
// workload is built for.
func TestWorkloadsBrief(t *testing.T) {
	window := time.Second
	if !testing.Short() {
		window = 3 * time.Second
	}
	traced := map[string]*result{}
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			res, err := runWorkload(w, 7, window, tr)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, tr, err)
			}
			defs := append(append([]metricDef(nil), endToEnd...), informational...)
			if tr {
				defs = perLayer
				traced[w.name] = res
			}
			for _, d := range defs {
				m, ok := res.metrics[d.name]
				if !ok || m.unit != d.unit {
					t.Errorf("%s: metric %s missing or not in %s (got %+v)", w.name, d.name, d.unit, m)
				}
			}
			if res.failed != 0 || res.metrics["error_rate"].value != 0 {
				t.Errorf("%s: %d of %d requests failed: %v", w.name, res.failed, res.attempted, res.problems)
			}
			if tr {
				checkTraced(t, w, res)
			}
		}
	}
	sampling := func(r *result) float64 {
		return r.metrics["count.sample_ms"].value + r.metrics["nfa.sample_ms"].value
	}
	build := func(r *result) float64 {
		return r.metrics["reduction.build_ms"].value + r.metrics["reduction.weight_ms"].value + r.metrics["trim_ms"].value
	}
	if s := sampling(traced["exact-mix"]); s != 0 {
		t.Errorf("exact-mix: sampling layers took %v ms per request, want 0", s)
	}
	fm := traced["fpras-mix"]
	for _, l := range timedLayers {
		if l.name == "count.sample" || l.name == "nfa.sample" {
			continue
		}
		v := fm.metrics[l.name+"_"+l.unit].value
		if l.unit == "us" {
			v /= 1000
		}
		if v >= sampling(fm) {
			t.Errorf("fpras-mix: %s (%v ms) is not below sampling (%v ms)", l.name, v, sampling(fm))
		}
	}
	ch := traced["churn"]
	chShare := build(ch) / (sampling(ch) + build(ch))
	fmShare := build(fm) / (sampling(fm) + build(fm))
	if chShare <= fmShare {
		t.Errorf("build+trim+weight share: churn %.3f, fpras-mix %.3f; want churn larger", chShare, fmShare)
	}
}

func checkTraced(t *testing.T, w *workload, res *result) {
	t.Helper()
	if v := res.metrics["serve.shed"].value; v != 0 {
		t.Errorf("%s: %v requests shed", w.name, v)
	}
	want := map[string]bool{}
	for _, r := range w.routes {
		want[r] = true
	}
	for _, r := range routes {
		n := res.metrics["router.dispatch."+r].value
		if want[r] != (n > 0) {
			t.Errorf("%s: router dispatched %v requests to %s, intended routes %v", w.name, n, r, w.routes)
		}
	}
	if v := res.metrics["trace.mismatches"].value; v != 0 {
		t.Errorf("%s: replay disagreed with %v served answers: %v", w.name, v, res.problems)
	}
	// The layer sums are timed in the replay and the latencies when
	// served: on compute-bound requests the two agree only within noise.
	if v := res.metrics["trace.layer_share"].value; v <= 0 || v > 1.1 {
		t.Errorf("%s: layer sums are %.3f of end-to-end latency, want in (0, 1.1]", w.name, v)
	}
	if v := res.metrics["shard.reassigned"].value; v != 0 {
		t.Errorf("%s: %v shard ranges reassigned", w.name, v)
	}
}
