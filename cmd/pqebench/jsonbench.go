package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"pqe/internal/obs"
)

// row is one benchmark row of every BENCH_*.json suite. The timing and
// allocation fields come from measure's samples; the suite-specific
// fields are left empty by the suites that have nothing to say there.
type row struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	Ops     int    `json:"ops"`
	// Samples is how many timed slices the ops ran in; NsPerOp is the
	// median of their per-op times and NsSpread the distance between
	// the samples' quartiles.
	Samples     int    `json:"samples"`
	NsPerOp     int64  `json:"ns_per_op"`
	NsSpread    int64  `json:"ns_spread"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	// Stats is the counting engine's effort counters per op, keyed by
	// counter name without the engine prefix and the _total suffix.
	Stats  map[string]int64 `json:"stats,omitempty"`
	Stages *stageNs         `json:"stage_ns,omitempty"`
	// TrialsPerOp is, on router rows, the FPRAS trials the engines
	// executed per evaluation (0 for exact routes) and, on shard rows,
	// the trials op 0 dispatched to workers (0 for the in-process
	// baseline).
	TrialsPerOp int64 `json:"trials_per_op,omitempty"`
	// Method and Exact record where a router row's evaluation went, so
	// a routing change shows up as a diff even when the timing matches.
	Method string `json:"method,omitempty"`
	Exact  bool   `json:"exact,omitempty"`
	// Estimate is a shard row's op-0 probability and EstimateBits its
	// exact float64 encoding, so bit-identity across worker counts
	// survives the JSON round trip.
	Estimate     float64 `json:"estimate,omitempty"`
	EstimateBits uint64  `json:"estimate_bits,omitempty"`

	reg      *obs.Registry // the registry every timed op ran under
	sampleNs []int64       // each sample's ns per op, in slice order
}

// perOp sums the named counters of the registry the row's ops ran
// under, averaged over the ops.
func (r *row) perOp(counters ...string) int64 {
	var sum int64
	for _, c := range counters {
		sum += r.reg.Counter(c).Value()
	}
	return sum / int64(r.Ops)
}

// engineRow measures op as one row of an engine suite: its timing, the
// engine's effort counters stats per op and the traced stage breakdown.
func engineRow(name string, workers int, engine string, stats []string, op func(sc *obs.Scope, i int)) row {
	r := measure(op)[0]
	r.Name, r.Workers = name, workers
	r.Stats = make(map[string]int64, len(stats))
	for _, st := range stats {
		r.Stats[st] = r.perOp(engine + "_" + st + "_total")
	}
	r.Stages = measureStages(op)
	return r
}

// benchFile is one BENCH_<suite>.json file.
type benchFile struct {
	Suite     string  `json:"suite"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"num_cpu"`
	Epsilon   float64 `json:"epsilon"`
	Seed      int64   `json:"seed"`
	// Trials is the shard suite's fixed trial schedule.
	Trials int `json:"trials,omitempty"`
	// RoutedSpeedupGeomean is the router suite's geometric mean over
	// the workloads of forced-FPRAS ns_per_op / routed ns_per_op at
	// workers=1 — the "spend only what the target needs" headline,
	// which must stay ≥ 2 on the mixed workload.
	RoutedSpeedupGeomean float64 `json:"routed_speedup_geomean,omitempty"`
	Results              []row   `json:"results"`
}

// benchConfig is what the -json flags hand every suite.
type benchConfig struct {
	eps          float64
	seed         int64
	workers      int // -maxprocs
	shardWorkers int
}

// workerCounts is the engine worker counts a suite runs at: 1 and, when
// -maxprocs asks for more, that count.
func (c benchConfig) workerCounts() []int {
	if c.workers > 1 {
		return []int{1, c.workers}
	}
	return []int{1}
}

// file starts a suite's file: its name and the run's header.
func (c benchConfig) file(suite string) *benchFile {
	return &benchFile{Suite: suite, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Epsilon: c.eps, Seed: c.seed}
}

// suites are the -json suites, in run order.
var suites = []func(benchConfig) (*benchFile, error){
	benchCountNFTA, benchCountNFA, benchChurn, benchRouter, benchShard,
}

// runJSONBench runs every suite and writes each to dir as
// BENCH_<suite>.json.
func runJSONBench(dir string, cfg benchConfig, stdout io.Writer) error {
	for _, suite := range suites {
		f, err := suite(cfg)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+f.Suite+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d results)\n", path, len(f.Results))
	}
	return nil
}

const (
	// benchTime is each row's measurement budget.
	benchTime = 300 * time.Millisecond
	// maxSamples is how many slices the budget is cut into.
	maxSamples = 9
)

// measure times each op in up to maxSamples slices of benchTime /
// maxSamples and returns one row per op with its timing and allocation
// figures; the ops' slices run round-robin, so the rows of a pair share
// the host's background load. A slice runs op(sc, i) for consecutive i
// from 0 until the slice's time is up, at least once. An op that
// outlasts a slice runs once per slice and stops sampling once its
// slices have spent benchTime, so an op longer than benchTime takes one
// sample and an op shorter than a slice always takes maxSamples. sc
// carries only a metrics registry, kept on the row, from which the
// suites read their per-op engine counters.
func measure(ops ...func(sc *obs.Scope, i int)) []row {
	rows := make([]row, len(ops))
	scopes := make([]*obs.Scope, len(ops))
	spent := make([]time.Duration, len(ops))
	done := make([]bool, len(ops))
	mallocs := make([]uint64, len(ops))
	bytes := make([]uint64, len(ops))
	for j := range rows {
		rows[j].reg = obs.NewRegistry()
		scopes[j] = obs.NewScope(nil, rows[j].reg, nil)
	}
	slice := benchTime / maxSamples
	runtime.GC()
	var before, after runtime.MemStats
	for k := 0; k < maxSamples; k++ {
		for j, op := range ops {
			if done[j] {
				continue
			}
			r := &rows[j]
			runtime.ReadMemStats(&before)
			n := 0
			start := time.Now()
			var el time.Duration
			for {
				op(scopes[j], r.Ops+n)
				n++
				if el = time.Since(start); el >= slice {
					break
				}
			}
			runtime.ReadMemStats(&after)
			mallocs[j] += after.Mallocs - before.Mallocs
			bytes[j] += after.TotalAlloc - before.TotalAlloc
			r.Ops += n
			r.sampleNs = append(r.sampleNs, el.Nanoseconds()/int64(n))
			spent[j] += el
			done[j] = n == 1 && spent[j] >= benchTime
		}
	}
	for j := range rows {
		r := &rows[j]
		xs := slices.Clone(r.sampleNs)
		slices.Sort(xs)
		n := len(xs)
		r.Samples = n
		r.NsPerOp = xs[n/2]
		r.NsSpread = xs[3*n/4] - xs[n/4]
		r.AllocsPerOp = mallocs[j] / uint64(r.Ops)
		r.BytesPerOp = bytes[j] / uint64(r.Ops)
	}
	return rows
}

// stageNs is the per-op pipeline timing breakdown, aggregated from the
// obs stage spans of a short traced pass run *after* the timed samples
// (the samples run under a registry only, so ns_per_op carries no span
// cost and stays comparable across releases).
type stageNs struct {
	// Build covers decomposition, automaton construction and multiplier
	// weighting (pqe.decompose / pqe.build_* / pqe.weight_*), trim
	// excluded.
	Build int64 `json:"build"`
	// Trim covers the automaton trims (pqe.trim_ur / pqe.trim_path).
	Trim int64 `json:"trim"`
	// Sample covers the counting engines (count.trees / count.nfa).
	Sample int64 `json:"sample"`
}

// stageRuns is the traced-pass repetition count behind each stage_ns
// row.
const stageRuns = 5

// measureStages runs op stageRuns times under a fresh tracer and
// averages the span durations into the build/trim/sample breakdown.
// Trim spans nest inside build spans, so their time is subtracted from
// Build.
func measureStages(op func(sc *obs.Scope, i int)) *stageNs {
	tr := obs.NewTracer()
	sc := obs.NewScope(tr, nil, nil)
	for i := 0; i < stageRuns; i++ {
		op(sc, i)
	}
	var out stageNs
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		switch s.Name() {
		case "pqe.decompose", "pqe.build_ur", "pqe.build_path_nfa", "pqe.weight_ur", "pqe.weight_path":
			out.Build += s.Duration().Nanoseconds()
		case "pqe.trim_ur", "pqe.trim_path":
			out.Trim += s.Duration().Nanoseconds()
		case "count.trees", "count.nfa":
			out.Sample += s.Duration().Nanoseconds()
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range tr.Roots() {
		walk(r)
	}
	out.Build = max(out.Build-out.Trim, 0)
	out.Build /= stageRuns
	out.Trim /= stageRuns
	out.Sample /= stageRuns
	return &out
}
