package main

import (
	"fmt"
	"math"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/shard"
)

// shardTrials is the fixed trial schedule of the shard suite: large
// enough that every worker of the widest pool gets a non-empty range.
const shardTrials = 8

type shardWorkload struct {
	name string
	q    *cq.Query
	h    *pdb.Probabilistic
	// eval pins the engine: the tree FPRAS for one workload and the
	// string (path-NFA) FPRAS for the other, so both sharded counting
	// paths are exercised.
	eval func(q *cq.Query, h *pdb.Probabilistic, opts core.Options) (float64, error)
}

// shardWorkloads are FPRAS-bound instances (wide enough that no exact
// route applies), one tree-engine and one string-engine shape.
func shardWorkloads() []shardWorkload {
	path := cq.PathQuery("R", 3)
	star := cq.StarQuery("S", 3)
	return []shardWorkload{
		{"path3/nfa", path,
			gen.Instance(path, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 13}),
			core.PathPQEEstimate},
		{"star3/nfta", star,
			gen.Instance(star, gen.Config{FactsPerRelation: 10, DomainSize: 3, Seed: 14}),
			core.PQEEstimate},
	}
}

// shardRow measures one workload, in process (pool nil, workers 0) or
// sharded over pool's n workers. Op 0 runs at the suite seed: its
// estimate is the row's, and the trials it dispatched to workers are
// the row's trials_per_op.
func shardRow(cfg benchConfig, wl shardWorkload, pool *shard.Pool, n int) row {
	dispatched := func() int64 {
		if pool == nil {
			return 0
		}
		return pool.Stats().TrialsDispatched
	}
	var est float64
	var trials int64
	r := measure(func(sc *obs.Scope, i int) {
		o := core.Options{Epsilon: cfg.eps, Seed: cfg.seed + int64(i), Trials: shardTrials, Obs: sc}
		if pool != nil {
			o.Shard = pool
		}
		before := dispatched()
		p, err := wl.eval(wl.q, wl.h, o)
		if err != nil {
			panic(fmt.Sprintf("shard %s workers=%d: %v", wl.name, n, err))
		}
		if i == 0 {
			est, trials = p, dispatched()-before
		}
	})[0]
	r.Name, r.Workers = wl.name, n
	r.TrialsPerOp = trials
	r.Estimate, r.EstimateBits = est, math.Float64bits(est)
	return r
}

// benchShard benchmarks distributed trial sharding against real worker
// processes: an in-process baseline (workers 0), then pools of
// cfg.shardWorkers and twice as many subprocesses. Every sharded op-0
// estimate must be bit-identical to the baseline's; the suite fails
// fast on a mismatch rather than record a broken file.
func benchShard(cfg benchConfig) (*benchFile, error) {
	out := cfg.file("shard")
	out.Trials = shardTrials
	workloads := shardWorkloads()
	baseline := map[string]uint64{}
	for _, wl := range workloads {
		r := shardRow(cfg, wl, nil, 0)
		baseline[wl.name] = r.EstimateBits
		out.Results = append(out.Results, r)
	}

	counts := []int{cfg.shardWorkers, 2 * cfg.shardWorkers}
	addrs, stopWorkers, err := spawnWorkers(counts[len(counts)-1])
	if err != nil {
		return nil, err
	}
	defer stopWorkers()
	for _, n := range counts {
		pool, err := shard.Dial(addrs[:n], shard.PoolConfig{})
		if err != nil {
			return nil, err
		}
		for _, wl := range workloads {
			r := shardRow(cfg, wl, pool, n)
			if r.EstimateBits != baseline[wl.name] {
				pool.Close()
				return nil, fmt.Errorf("shard %s workers=%d: estimate %v (bits %#x) != baseline bits %#x: not bit-identical",
					wl.name, n, r.Estimate, r.EstimateBits, baseline[wl.name])
			}
			out.Results = append(out.Results, r)
		}
		pool.Close()
	}
	return out, nil
}
