// Command perfbench is the repository's end-to-end benchmark. It starts
// an in-process pqed (serve.NewServer on a loopback listener, plus shard
// workers where the workload needs them), drives one seeded workload
// over HTTP, checks every answer, and prints its metrics.
//
//	bash perfbench/run.sh --workload exact-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same traffic and then a traced replay of the sent requests
// through the layers, and reports the per-layer metrics. --workload all
// runs every workload both ways. The last line of standard output is a
// JSON summary; the exit status is non-zero on any failed request or
// wrong answer. WORKLOADS.md describes the workloads and metrics.
package main

import (
	"encoding/json"

	"flag"
	"fmt"
	"io"
	"math"

	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer are the metric sets a run reports with --trace
// 0 and --trace 1; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// informational metrics are printed in the end-to-end table but left
// out of the JSON summary: each is either zero by design or measured on
// one workload only, and a gated metric must be non-zero and reported
// on every workload.
var informational = []metricDef{
	{"latency_p99_ms", "ms"},
	{"write_latency_p50_ms", "ms"},
	{"write_latency_p90_ms", "ms"},
	{"error_rate", "ratio"},
}

// timedLayers are the replay's span names with the unit their self
// time is reported in.
var timedLayers = []metricDef{
	{"hypertree.decompose", "us"},
	{"router.decide", "us"},
	{"safeplan.eval", "us"},
	{"lineage.compute", "us"},
	{"obdd.compile", "us"},
	{"obdd.wmc", "us"},
	{"reduction.build", "ms"},
	{"trim", "ms"},
	{"reduction.weight", "ms"},
	{"count.sample", "ms"},
	{"nfa.sample", "ms"},
	{"pdb.apply_delta", "us"},
	{"shard.count", "ms"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.queue_ms_p90", "ms"},
		{"serve.budget_wait_ms_p90", "ms"},
		{"serve.serialize_ms_p50", "ms"},
		{"serve.session_hit_ratio", "ratio"},
		{"serve.session_evictions", "count"},
		{"serve.shed", "count"},
	}
	for _, r := range routes {
		defs = append(defs, metricDef{"router.dispatch." + r, "count"})
	}
	for _, l := range timedLayers {
		defs = append(defs, metricDef{l.name + "_" + l.unit, l.unit}, metricDef{l.name + ".spans", "count"})
	}
	defs = append(defs,
		metricDef{"lineage.clauses", "count"},
		metricDef{"obdd.nodes", "count"},
		metricDef{"reduction.states", "count"},
	)
	for _, eng := range []string{"count", "nfa"} {
		defs = append(defs,
			metricDef{eng + ".trials", "count"},
			metricDef{eng + ".trials_saved", "count"},
			metricDef{eng + ".union_samples", "count"},
			metricDef{eng + ".accept_ratio", "ratio"},
		)
	}
	return append(defs,
		metricDef{"shard.overhead_ms", "ms"},
		metricDef{"shard.ranges", "count"},
		metricDef{"shard.reassigned", "count"},
		metricDef{"gen.lag_p99_ms", "ms"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"trace.requests", "count"},
		metricDef{"trace.mismatches", "count"},
		metricDef{"trace.layer_share", "ratio"},
		metricDef{"trace.over_e2e", "count"},
	)
}()

type metricDef struct{ name, unit string }

// metric is one reported value with the number of samples behind it.
type metric struct {
	value   float64
	unit    string
	samples int
}

// result is one workload run.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

func (r *result) set(name, unit string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit, samples}
}

// setups is how many times a run sets pqed up; setup_s is their median.
const setups = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+", or all)")
	seed := fs.Int64("seed", 1, "workload seed: request choices, request seeds and delta ops derive from it")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	fmt.Fprintf(stdout, "# perfbench seed=%d seconds=%g nproc=%d gomaxprocs=%d go=%s\n",
		*seed, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	summary := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, w := range ws {
		modes := []bool{*trace == 1}
		if *name == "all" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			res, err := runWorkload(w, *seed, window, traced)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			printTable(stdout, w, traced, res, defs)
			for _, p := range res.problems {
				fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, p)
			}
			summary.Attempted += res.attempted
			summary.Failed += res.failed
			summary.Correct = summary.Correct && res.failed == 0
			for _, d := range defs {
				key := d.name
				if len(ws) > 1 {
					key = w.name + "." + d.name
				}
				m := res.metrics[d.name]
				summary.Metrics[key] = map[string]any{"value": m.value, "unit": m.unit}
			}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func printTable(out io.Writer, w *workload, traced bool, res *result, defs []metricDef) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced replay)"
	}
	fmt.Fprintf(out, "# workload=%s metrics=%s loop=%q load=%q\n", w.name, mode, w.loop, w.load)
	fmt.Fprintf(out, "# layer metrics it is built to move: %s\n", strings.Join(w.moves, ", "))
	fmt.Fprintf(out, "# attempted=%d failed=%d\n", res.attempted, res.failed)
	fmt.Fprintf(out, "%-32s %14s  %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		m := res.metrics[d.name]
		fmt.Fprintf(out, "%-32s %14.6g  %-6s %8d\n", d.name, m.value, m.unit, m.samples)
	}
	if traced {
		return
	}
	for _, d := range informational {
		m := res.metrics[d.name]
		fmt.Fprintf(out, "%-32s %14.6g  %-6s %8d  (not in the summary)\n", d.name, m.value, m.unit, m.samples)
	}
}

// runWorkload runs w once and computes its metrics: end-to-end ones,
// or with traced the per-layer ones.
func runWorkload(w *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	res := &result{metrics: map[string]metric{}}
	n := setups
	if traced {
		n = 1
	}
	var setupS []float64
	var e *env
	for i := 0; i < n; i++ {
		t0 := time.Now()
		env, err := setup(w, traced)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < n-1 {
			env.close()
		} else {
			e = env
		}
	}
	defer e.close()
	streams := w.gen(w, e.dbs, seed, window)

	counters := []string{"pqed_session_hits_total", "pqed_session_misses_total",
		"pqed_session_evictions_total", "pqed_requests_shed_total"}
	var before map[string]float64
	if traced {
		e.logs.reset()
		var err error
		if before, err = e.scrapeCounters(counters...); err != nil {
			return nil, err
		}
	}
	recs := e.drive(streams, window)
	// Two collections: the first only moves sync.Pool contents to their
	// victim caches, the second frees them.
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)

	vers := newVersions(e, recs)
	check(e, recs, vers)
	res.attempted = len(recs)
	for _, r := range recs {
		if r.failed() {
			res.failed++
			if len(res.problems) < 5 {
				res.problems = append(res.problems, describeFailure(e, r))
			}
		}
	}
	res.set("error_rate", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)

	if !traced {
		var est, wr []float64
		ok := 0
		for _, r := range recs {
			ms := float64(r.latency()) / float64(time.Millisecond)
			if r.req.delta {
				wr = append(wr, ms)
				continue
			}
			est = append(est, ms)
			if !r.failed() && r.done <= window {
				ok++
			}
		}
		res.set("throughput_rps", "1/s", float64(ok)/window.Seconds(), ok)
		res.set("latency_p50_ms", "ms", sliceQuantile(est, 0.50), len(est))
		res.set("latency_p90_ms", "ms", sliceQuantile(est, 0.90), len(est))
		res.set("latency_p99_ms", "ms", sliceQuantile(est, 0.99), len(est))
		res.set("write_latency_p50_ms", "ms", sliceQuantile(wr, 0.50), len(wr))
		res.set("write_latency_p90_ms", "ms", sliceQuantile(wr, 0.90), len(wr))
		res.set("setup_s", "s", quantile(setupS, 0.5), len(setupS))
		res.set("heap_mb", "MB", float64(ms.HeapAlloc)/(1<<20), 1)
		return res, nil
	}

	after, err := e.scrapeCounters(counters...)
	if err != nil {
		return nil, err
	}
	budget := max(window/4, time.Second)
	rp, rep, overhead, shardOver, err := replayPasses(e, recs, vers, budget)
	if err != nil {
		return nil, err
	}
	for _, m := range rp.mismatches {
		if len(res.problems) < 5 {
			res.problems = append(res.problems, "replay mismatch: "+m)
		}
	}
	layerMetrics(res, e, recs, before, after, rp, rep, overhead, shardOver)
	return res, nil
}

func describeFailure(e *env, r *record) string {
	what := "delta on " + r.req.db
	if !r.req.delta {
		what = e.w.templates[r.req.tmpl].name
	}
	switch {
	case r.wrong != "":
		return "wrong answer: " + r.wrong
	case r.err != "":
		return fmt.Sprintf("%s: status %d: %s", what, r.status, r.err)
	default:
		return fmt.Sprintf("%s: status %d", what, r.status)
	}
}

// layerMetrics fills the per-layer metrics from pqed's access log and
// counters, the generator's schedule and the traced replay.
func layerMetrics(res *result, e *env, recs []*record, before, after map[string]float64,
	rp *replayer, rep traceReport, overhead float64, shardOver time.Duration) {
	e.logs.mu.Lock()
	var queue, serialize []float64
	for _, a := range e.logs.requests {
		switch a.route {
		case "estimate", "stream", "delta":
			queue = append(queue, a.queueMS)
		}
		if a.route == "estimate" || a.route == "stream" {
			serialize = append(serialize, a.serializeMS)
		}
	}
	waits := append([]float64(nil), e.logs.waits...)
	e.logs.mu.Unlock()
	res.set("serve.queue_ms_p90", "ms", quantile(queue, 0.9), len(queue))
	res.set("serve.budget_wait_ms_p90", "ms", quantile(waits, 0.9), len(waits))
	res.set("serve.serialize_ms_p50", "ms", quantile(serialize, 0.5), len(serialize))
	diff := func(name string) float64 { return after[name] - before[name] }
	hits, misses := diff("pqed_session_hits_total"), diff("pqed_session_misses_total")
	res.set("serve.session_hit_ratio", "ratio", hits/math.Max(hits+misses, 1), int(hits+misses))
	res.set("serve.session_evictions", "count", diff("pqed_session_evictions_total"), 1)
	res.set("serve.shed", "count", diff("pqed_requests_shed_total"), 1)

	for _, r := range routes {
		res.set("router.dispatch."+r, "count", float64(rp.routes[r]), rep.requests)
	}
	perReq := float64(max(rep.requests, 1))
	for _, l := range timedLayers {
		st := rep.layers[l.name]
		if st == nil {
			st = &layerStat{}
		}
		scale := float64(time.Millisecond)
		if l.unit == "us" {
			scale = float64(time.Microsecond)
		}
		res.set(l.name+"_"+l.unit, l.unit, float64(st.self)/scale/perReq, st.spans)
		res.set(l.name+".spans", "count", float64(st.spans), st.spans)
	}
	res.set("lineage.clauses", "count", meanInts(rp.clauses), len(rp.clauses))
	res.set("obdd.nodes", "count", meanInts(rp.nodes), len(rp.nodes))
	res.set("reduction.states", "count", meanInts(rp.states), len(rp.states))
	for eng, prefix := range map[string]string{"count": "countnfta", "nfa": "countnfa"} {
		c := func(n string) float64 { return float64(rp.reg.Counter(prefix + "_" + n + "_total").Value()) }
		calls := c("calls")
		perCall := math.Max(calls, 1)
		res.set(eng+".trials", "count", c("trials")/perCall, int(calls))
		res.set(eng+".trials_saved", "count", c("trials_saved")/perCall, int(calls))
		union, rej := c("union_samples"), c("rejections")
		res.set(eng+".union_samples", "count", union/perCall, int(calls))
		res.set(eng+".accept_ratio", "ratio", union/math.Max(union+rej, 1), int(union+rej))
	}
	res.set("shard.overhead_ms", "ms", float64(shardOver)/float64(time.Millisecond), len(rp.refs))
	ranges := float64(rp.reg.Counter("shard_ranges_dispatched_total").Value())
	calls := rp.reg.Counter("shard_calls_total").Value()
	res.set("shard.ranges", "count", ranges/math.Max(float64(calls), 1), int(calls))
	reassigned := float64(rp.reg.Counter("shard_reassigned_total").Value())
	if e.pool != nil {
		reassigned += float64(e.pool.Stats().Reassigned)
	}
	res.set("shard.reassigned", "count", reassigned, 1)

	var lag []float64
	for _, r := range recs {
		if r.req.at > 0 {
			lag = append(lag, float64(r.lag)/float64(time.Millisecond))
		}
	}
	res.set("gen.lag_p99_ms", "ms", quantile(lag, 0.99), len(lag))
	res.set("trace.overhead", "ratio", overhead, rep.requests)
	res.set("trace.requests", "count", float64(rep.requests), rep.requests)
	res.set("trace.mismatches", "count", float64(len(rp.mismatches)), rep.requests)
	res.set("trace.layer_share", "ratio", float64(rep.layerSum)/math.Max(float64(rep.e2e), 1), rep.requests)
	res.set("trace.over_e2e", "count", float64(rep.over), rep.requests)
}

// sliceQuantile is the median over up to ten consecutive slices of xs
// (in send order) of each slice's q-quantile, with every slice keeping
// at least twenty samples beyond the quantile. A burst of host noise
// then moves one slice, not the reported value.
func sliceQuantile(xs []float64, q float64) float64 {
	per := int(math.Ceil(20 / (1 - q)))
	k := len(xs) / per
	if k > 10 {
		k = 10
	}
	if k <= 1 {
		return quantile(xs, q)
	}
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return quantile(qs, 0.5)
}

// quantile returns the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
