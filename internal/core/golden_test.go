package core

import (
	"math"
	"testing"

	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

// goldenShape is one routed FPRAS request shape of the pqed benchmark:
// the same generated database, query, ε and trial count as the
// fpras-mix templates (path3-half, triangle-half, path3-rational) and
// the churn read (path3 over 40 facts per relation, ε 0.5, 1 trial).
type goldenShape struct {
	name   string
	q      *cq.Query
	h      *pdb.Probabilistic
	eps    float64
	trials int
}

func goldenShapes() []goldenShape {
	path := cq.PathQuery("R", 3)
	tri := cq.CycleQuery("C", 3)
	return []goldenShape{
		{"path3-half", path, gen.Instance(path, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 13}), 0.1, 0},
		{"triangle-half", tri, gen.Instance(tri, gen.Config{FactsPerRelation: 9, DomainSize: 4, Seed: 21}), 0.1, 0},
		{"path3-rational", path, gen.Instance(path, gen.Config{FactsPerRelation: 10, DomainSize: 4, Model: gen.ProbRandomRational, Seed: 13}), 0.1, 0},
		{"path3-churn", path, gen.Instance(path, gen.Config{FactsPerRelation: 40, DomainSize: 20, Seed: 31}), 0.5, 1},
	}
}

// goldenBits holds math.Float64bits of the routed "auto" estimate per
// shape, indexed [seed-1][MaxProcs 1, 4]. The values are literal: a
// sampler or prefix-row change that moves a single draw changes them,
// and the table is never regenerated to make such a change pass.
var goldenBits = map[string][4][2]uint64{
	"path3-half":     {{0x3fedceb4d32298f9, 0x3fedceb4d32298f9}, {0x3fede135ec136a67, 0x3fede135ec136a67}, {0x3fedca0512fdd1d9, 0x3fedca0512fdd1d9}, {0x3fee380ef99806f2, 0x3fee380ef99806f2}},
	"triangle-half":  {{0x3fe1fd70a3d70a3e, 0x3fe1fd70a3d70a3e}, {0x3fe1afc962fc9630, 0x3fe1afc962fc9630}, {0x3fe1d55555555555, 0x3fe1d55555555555}, {0x3fe1c7ae147ae148, 0x3fe1c7ae147ae148}},
	"path3-rational": {{0x3feec126c0cea63d, 0x3feec126c0cea63d}, {0x3fef78fe90bb60e2, 0x3fef78fe90bb60e2}, {0x3fee1dfdd5641ae2, 0x3fee1dfdd5641ae2}, {0x3fef31d5f52b41e1, 0x3fef31d5f52b41e1}},
	"path3-churn":    {{0x3ff3a071c71c71c7, 0x3ff3a071c71c71c7}, {0x3fecd64bda12f686, 0x3fecd64bda12f686}, {0x3ff024425ed097b4, 0x3ff024425ed097b4}, {0x3fed664bda12f687, 0x3fed664bda12f687}},
}

func TestGoldenRoutedEstimates(t *testing.T) {
	for _, sh := range goldenShapes() {
		want, ok := goldenBits[sh.name]
		if !ok {
			t.Fatalf("%s: no golden row", sh.name)
		}
		for seed := int64(1); seed <= 4; seed++ {
			for pi, procs := range []int{1, 4} {
				res, err := Evaluate(sh.q, sh.h, Options{
					Epsilon: sh.eps, Trials: sh.trials, Seed: seed, MaxProcs: procs, Strategy: "auto",
				})
				if err != nil {
					t.Fatalf("%s seed %d MaxProcs %d: %v", sh.name, seed, procs, err)
				}
				if res.Exact {
					t.Fatalf("%s routed to exact %v, want an FPRAS engine", sh.name, res.Method)
				}
				if got := math.Float64bits(res.Probability); got != want[seed-1][pi] {
					t.Errorf("%s seed %d MaxProcs %d: bits %#x (%v), want %#x (%v)", sh.name, seed, procs,
						got, res.Probability, want[seed-1][pi], math.Float64frombits(want[seed-1][pi]))
				}
			}
		}
	}
}

// goldenCounters is one call's engine effort, read from the
// *_total registry counters in field order: union_samples,
// accept_checks, rejections, the engine's two memo key counts
// (word_keys and union_keys for countnfa, tree_keys and forest_keys
// for countnfta) and memo_hits.
type goldenCounters struct {
	unionSamples, acceptChecks, rejections, keysA, keysB, memoHits int64
}

// goldenEngineCounters pins the countnfa_* totals of the three path
// shapes per seed; every MaxProcs must reproduce them. The estimate
// bits alone cannot tell "same draws, same checks" from a kernel that
// reaches the same answer by different work, so these literals pin the
// number of words drawn, membership tests run and rejections taken.
var goldenEngineCounters = map[string][4]goldenCounters{
	"path3-half":     {{37800, 78968, 25014, 900, 21, 819}, {37800, 79057, 25114, 900, 21, 819}, {37800, 79617, 25489, 900, 21, 819}, {37800, 79679, 25700, 900, 21, 819}},
	"path3-rational": {{115200, 175860, 33666, 4833, 72, 2781}, {115200, 175788, 33914, 4833, 72, 2781}, {115200, 176025, 33796, 4833, 72, 2781}, {115200, 175437, 33486, 4833, 72, 2781}},
	"path3-churn":    {{1560, 2943, 674, 3800, 23, 3721}, {1560, 3075, 827, 3800, 23, 3721}, {1560, 3068, 775, 3800, 23, 3721}, {1560, 3154, 840, 3800, 23, 3721}},
}

// goldenTreeCounters pins the countnfta_* totals of triangle-half, the
// shape routed to the tree engine, the same way.
var goldenTreeCounters = map[string][4]goldenCounters{
	"triangle-half": {{21600, 21600, 0, 495, 0, 447}, {21600, 21600, 0, 495, 0, 447}, {21600, 21600, 0, 495, 0, 447}, {21600, 21600, 0, 495, 0, 447}},
}

// engineCounters reads one engine's goldenCounters from reg.
func engineCounters(reg *obs.Registry, engine, keysA, keysB string) goldenCounters {
	c := func(name string) int64 { return reg.Counter(engine + "_" + name + "_total").Value() }
	return goldenCounters{c("union_samples"), c("accept_checks"), c("rejections"), c(keysA), c(keysB), c("memo_hits")}
}

func TestGoldenEngineCounters(t *testing.T) {
	for _, sh := range goldenShapes() {
		wantWord, word := goldenEngineCounters[sh.name]
		wantTree, tree := goldenTreeCounters[sh.name]
		if !word && !tree {
			t.Fatalf("%s: no engine-counter row", sh.name)
		}
		for seed := int64(1); seed <= 4; seed++ {
			for _, procs := range []int{1, 4} {
				reg := obs.NewRegistry()
				if _, err := Evaluate(sh.q, sh.h, Options{
					Epsilon: sh.eps, Trials: sh.trials, Seed: seed, MaxProcs: procs, Strategy: "auto",
					Obs: obs.NewScope(nil, reg, nil),
				}); err != nil {
					t.Fatalf("%s seed %d MaxProcs %d: %v", sh.name, seed, procs, err)
				}
				if got := engineCounters(reg, "countnfa", "word_keys", "union_keys"); word && got != wantWord[seed-1] {
					t.Errorf("%s seed %d MaxProcs %d: countnfa counters %+v, want %+v", sh.name, seed, procs, got, wantWord[seed-1])
				}
				if got := engineCounters(reg, "countnfta", "tree_keys", "forest_keys"); tree && got != wantTree[seed-1] {
					t.Errorf("%s seed %d MaxProcs %d: countnfta counters %+v, want %+v", sh.name, seed, procs, got, wantTree[seed-1])
				}
			}
		}
	}
}

// goldenFixedTreeCounters pins the countnfta_* totals of the fixed PQE
// pipeline on path3-churn, whose tree-engine draws take canonical-first
// rejections (triangle-half's take none), per seed; MaxProcs 1 and 4
// must both reproduce them.
var goldenFixedTreeCounters = [4]goldenCounters{
	{5352, 7606, 1379, 7208, 0, 7181}, {5352, 7623, 1394, 7208, 0, 7181}, {5352, 7574, 1357, 7208, 0, 7181}, {5352, 7589, 1358, 7208, 0, 7181},
}

func TestGoldenFixedTreeCounters(t *testing.T) {
	for _, sh := range goldenShapes() {
		if sh.name != "path3-churn" {
			continue
		}
		for seed := int64(1); seed <= 4; seed++ {
			for _, procs := range []int{1, 4} {
				reg := obs.NewRegistry()
				if _, err := PQEEstimate(sh.q, sh.h, Options{
					Epsilon: sh.eps, Trials: sh.trials, Seed: seed, MaxProcs: procs,
					Obs: obs.NewScope(nil, reg, nil),
				}); err != nil {
					t.Fatalf("%s seed %d MaxProcs %d: %v", sh.name, seed, procs, err)
				}
				if got := engineCounters(reg, "countnfta", "tree_keys", "forest_keys"); got != goldenFixedTreeCounters[seed-1] {
					t.Errorf("%s seed %d MaxProcs %d: countnfta counters %+v, want %+v", sh.name, seed, procs, got, goldenFixedTreeCounters[seed-1])
				}
			}
		}
	}
}

// efloatBits is an efloat.E's exact (mantissa bits, exponent) pair.
type efloatBits struct {
	mant uint64
	exp  int64
}

// The goldenFixed* tables pin the fixed schedule (Strategy "", Delta 0)
// of each counting pipeline per shape, indexed [seed-1]; MaxProcs 1
// and 4 must both reproduce them. PQE and PathPQE rows are
// math.Float64bits of the probability; UR and Path rows are efloatBits.
// The tree pipelines (UR, PQE) are pinned on the triangle and churn
// shapes only: on the ε 0.1 path shapes one tree call takes seconds to
// minutes. The values are literal and never regenerated.
var goldenFixedPQE = map[string][4]uint64{
	"triangle-half": {0x3fe1eaaaaaaaaaab, 0x3fe1d3a06d3a06d4, 0x3fe1da740da740da, 0x3fe1c962fc962fca},
	"path3-churn":   {0x3fee29c71c71c71b, 0x3feecd5555555555, 0x3ff161c71c71c71d, 0x3fefbb8e38e38e3b},
}

var goldenFixedUR = map[string][4]efloatBits{
	"triangle-half": {{0x3ff1eaaaaaaaaaab, 26}, {0x3ff1d3a06d3a06d4, 26}, {0x3ff1da740da740da, 26}, {0x3ff1c962fc962fca, 26}},
	"path3-churn":   {{0x3ffe29c71c71c71b, 119}, {0x3ffecd5555555555, 119}, {0x3ff161c71c71c71d, 120}, {0x3fffbb8e38e38e3b, 119}},
}

var goldenFixedPathPQE = map[string][4]uint64{
	"path3-half":     {0x3fedceb4d32298f9, 0x3fee1b0706bc2b6d, 0x3fedca0512fdd1d9, 0x3fee0856517525be},
	"path3-rational": {0x3feed6da1332eb12, 0x3fef78fe90bb60e2, 0x3feef75bdd382908, 0x3fef31d5f52b41e1},
	"path3-churn":    {0x3ff3a071c71c71c7, 0x3fecd64bda12f686, 0x3ff024425ed097b4, 0x3fed664bda12f687},
}

var goldenFixedPath = map[string][4]efloatBits{
	"path3-half":     {{0x3ffdceb4d32298f9, 29}, {0x3ffe1b0706bc2b6d, 29}, {0x3ffdca0512fdd1d9, 29}, {0x3ffe0856517525be, 29}},
	"path3-rational": {{0x3ffe0c661e51f2ac, 29}, {0x3ffe9a7117925c57, 29}, {0x3ffec333a1ce2b6b, 29}, {0x3ffe75e439e0c46a, 29}},
	"path3-churn":    {{0x3ff3a071c71c71c7, 120}, {0x3ffcd64bda12f686, 119}, {0x3ff024425ed097b4, 120}, {0x3ffd664bda12f687, 119}},
}

func TestGoldenFixedEstimates(t *testing.T) {
	probe := func(name, pipeline string, seed int64, procs int, got, want any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s seed %d MaxProcs %d: %v", name, pipeline, seed, procs, err)
		}
		if got != want {
			t.Errorf("%s %s seed %d MaxProcs %d: bits %#v, want %#v", name, pipeline, seed, procs, got, want)
		}
	}
	bitsOf := func(x interface{ Bits() (uint64, int64) }) efloatBits {
		m, e := x.Bits()
		return efloatBits{m, e}
	}
	for _, sh := range goldenShapes() {
		for seed := int64(1); seed <= 4; seed++ {
			for _, procs := range []int{1, 4} {
				opts := Options{Epsilon: sh.eps, Trials: sh.trials, Seed: seed, MaxProcs: procs}
				if want, ok := goldenFixedPQE[sh.name]; ok {
					p, err := PQEEstimate(sh.q, sh.h, opts)
					probe(sh.name, "PQE", seed, procs, math.Float64bits(p), want[seed-1], err)
				}
				if want, ok := goldenFixedUR[sh.name]; ok {
					c, err := UREstimate(sh.q, sh.h.DB(), opts)
					probe(sh.name, "UR", seed, procs, bitsOf(c), want[seed-1], err)
				}
				if want, ok := goldenFixedPathPQE[sh.name]; ok {
					p, err := PathPQEEstimate(sh.q, sh.h, opts)
					probe(sh.name, "PathPQE", seed, procs, math.Float64bits(p), want[seed-1], err)
				}
				if want, ok := goldenFixedPath[sh.name]; ok {
					c, err := PathEstimate(sh.q, sh.h.DB(), opts)
					probe(sh.name, "Path", seed, procs, bitsOf(c), want[seed-1], err)
				}
			}
		}
	}
}

// goldenTrialCounts pins the per-call trial accounting of each routed
// shape: countnfta_trials_total, countnfta_trials_saved_total,
// countnfa_trials_total, countnfa_trials_saved_total and
// router_trials_saved_total. It is the same at every seed and MaxProcs.
var goldenTrialCounts = map[string][5]int64{
	"path3-half":     {0, 0, 3, 2, 2},
	"triangle-half":  {3, 2, 0, 0, 2},
	"path3-rational": {0, 0, 3, 2, 2},
	"path3-churn":    {0, 0, 1, 0, 0},
}

func TestGoldenTrialCounts(t *testing.T) {
	for _, sh := range goldenShapes() {
		want, ok := goldenTrialCounts[sh.name]
		if !ok {
			t.Fatalf("%s: no trial-count row", sh.name)
		}
		for seed := int64(1); seed <= 4; seed++ {
			for _, procs := range []int{1, 4} {
				reg := obs.NewRegistry()
				if _, err := Evaluate(sh.q, sh.h, Options{
					Epsilon: sh.eps, Trials: sh.trials, Seed: seed, MaxProcs: procs, Strategy: "auto",
					Obs: obs.NewScope(nil, reg, nil),
				}); err != nil {
					t.Fatalf("%s seed %d MaxProcs %d: %v", sh.name, seed, procs, err)
				}
				c := func(name string) int64 { return reg.Counter(name).Value() }
				got := [5]int64{c("countnfta_trials_total"), c("countnfta_trials_saved_total"),
					c("countnfa_trials_total"), c("countnfa_trials_saved_total"), c("router_trials_saved_total")}
				if got != want {
					t.Errorf("%s seed %d MaxProcs %d: trial counts %v, want %v", sh.name, seed, procs, got, want)
				}
			}
		}
	}
}
