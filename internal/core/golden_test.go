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

// goldenCounters is one routed call's path-NFA engine effort, read from
// the countnfa_*_total registry counters.
type goldenCounters struct {
	unionSamples, acceptChecks, rejections, wordKeys, unionKeys, memoHits int64
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

func TestGoldenEngineCounters(t *testing.T) {
	for _, sh := range goldenShapes() {
		want, ok := goldenEngineCounters[sh.name]
		if !ok {
			continue // routed to the tree engine
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
				c := func(name string) int64 { return reg.Counter("countnfa_" + name + "_total").Value() }
				got := goldenCounters{c("union_samples"), c("accept_checks"), c("rejections"), c("word_keys"), c("union_keys"), c("memo_hits")}
				if got != want[seed-1] {
					t.Errorf("%s seed %d MaxProcs %d: counters %+v, want %+v", sh.name, seed, procs, got, want[seed-1])
				}
			}
		}
	}
}
