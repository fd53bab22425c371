package pqe

import (
	"net"

	"pqe/internal/shard"
)

// ShardPool is a coordinator-side HTTP client pool over shard worker
// processes (see cmd/pqe -shard-listen). Attach one to Options.Shards
// and every FPRAS counting phase of that call is partitioned into
// contiguous trial ranges, executed on the workers, and merged through
// the same upper-median path the in-process engines use — the result
// is bit-identical to the local run at any worker count, including
// after a mid-call worker failure (ranges are reassigned; trial seeds
// derive from (seed, index), never from placement).
//
// A ShardPool is safe for concurrent use by independent evaluations,
// whose ranges run on a worker side by side, and is reusable across
// queries and databases: every range request carries its instance,
// and workers cache an estimator session per instance text.
type ShardPool struct {
	p *shard.Pool
}

// NewShardPool connects to the given worker addresses ("host:port").
// Every worker must answer a probe on the shard route; a failure
// closes the pool and reports which worker did not.
func NewShardPool(addrs ...string) (*ShardPool, error) {
	p, err := shard.Dial(addrs, shard.PoolConfig{})
	if err != nil {
		return nil, err
	}
	return &ShardPool{p: p}, nil
}

// Workers returns the number of configured workers.
func (s *ShardPool) Workers() int { return s.p.Workers() }

// Close cancels the pool's requests in flight and drops its idle
// connections. Evaluations in flight fail as if the workers died.
func (s *ShardPool) Close() { s.p.Close() }

// ShardStats is a snapshot of a pool's lifetime dispatch counters.
type ShardStats struct {
	// RangesDispatched counts contiguous trial ranges sent to workers;
	// TrialsDispatched the trials those ranges covered.
	RangesDispatched int64
	TrialsDispatched int64
	// Reassigned counts ranges re-run on another worker after a
	// failure; WorkerFailures the failed attempts that caused them.
	Reassigned     int64
	WorkerFailures int64
}

// ServeShardWorker runs a shard worker process on the listener until
// it is closed: it serves POST /v1/shard/range over HTTP, caches an
// estimator session per (query, database, max width) instance, and
// executes the trial ranges coordinators post. A range stops when its
// coordinator gives up on it. maxProcs bounds the engines' scheduler
// width per request (0 means all CPUs). If tel is non-nil it receives
// the worker-local engine telemetry, whose range spans carry the
// coordinator's request ID.
func ServeShardWorker(l net.Listener, maxProcs int, tel *Telemetry) error {
	cfg := shard.ServerConfig{MaxProcs: maxProcs}
	if tel != nil {
		cfg.Obs = tel.scope()
	}
	return shard.NewServer(cfg).Serve(l)
}

// Stats returns the pool's dispatch counters.
func (s *ShardPool) Stats() ShardStats {
	st := s.p.Stats()
	return ShardStats{
		RangesDispatched: st.RangesDispatched,
		TrialsDispatched: st.TrialsDispatched,
		Reassigned:       st.Reassigned,
		WorkerFailures:   st.WorkerFailures,
	}
}
