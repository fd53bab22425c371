package testkit

import (
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"pqe/internal/core"
	"pqe/internal/efloat"
	"pqe/internal/shard"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Derivation sites for the shard differential's evaluation seeds,
// disjoint from the runner's 0x10 block.
const (
	siteShardPQE uint64 = 0x20 + iota
	siteShardUR
	siteShardPath
	siteShardPathPQE
	siteShardAnytime
)

// ShardHarness runs N in-process shard workers on loopback plus a
// coordinator pool, for differential tests of distributed vs local
// evaluation. KillWorker simulates a mid-suite crash; the pool must
// reassign that worker's ranges without changing any result bit.
type ShardHarness struct {
	Pool      *shard.Pool
	servers   []*shard.Server
	listeners []net.Listener
}

// NewShardHarness starts n workers and connects a pool to them. The
// call timeout is short so a killed worker is detected quickly.
func NewShardHarness(n int) (*ShardHarness, error) {
	h := &ShardHarness{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.Close()
			return nil, err
		}
		addrs[i] = l.Addr().String()
		s := shard.NewServer(shard.ServerConfig{MaxProcs: 2})
		go s.Serve(l)
		h.servers = append(h.servers, s)
		h.listeners = append(h.listeners, l)
	}
	pool, err := shard.Dial(addrs, shard.PoolConfig{
		DialTimeout: 2 * time.Second,
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.Pool = pool
	return h, nil
}

// KillWorker shuts worker i down hard: live connections drop and
// redials are refused. Subsequent ranges assigned to it must be
// reassigned by the pool.
func (h *ShardHarness) KillWorker(i int) {
	h.servers[i].Close()
	h.listeners[i].Close()
}

// Stats exposes the pool's dispatch counters.
func (h *ShardHarness) Stats() shard.Stats { return h.Pool.Stats() }

// Close tears down the pool and every worker.
func (h *ShardHarness) Close() {
	if h.Pool != nil {
		h.Pool.Close()
	}
	for _, s := range h.servers {
		s.Close()
	}
	for _, l := range h.listeners {
		l.Close()
	}
}

// RunShardDifferential cross-checks every applicable engine of one
// generated case sharded vs local, byte for byte: same seed, same
// schedule, the only difference being Options.Shard. Error paths must
// agree too — the distributed run may not succeed where the local one
// refuses, or vice versa.
func RunShardDifferential(c *Case, cfg Config, h *ShardHarness) error {
	prob := func(name string, site uint64, extra func(*core.Options),
		eval func(opts core.Options) (float64, error)) error {
		opts := core.Options{Epsilon: cfg.Epsilon, Trials: cfg.Trials, Seed: evalSeed(c, site, 0), Obs: cfg.Obs}
		if extra != nil {
			extra(&opts)
		}
		local, localErr := eval(opts)
		opts.Shard = h.Pool
		sharded, shardErr := eval(opts)
		if (localErr == nil) != (shardErr == nil) {
			return fmt.Errorf("%s: error-path asymmetry: local=%v sharded=%v", name, localErr, shardErr)
		}
		if localErr != nil {
			if errors.Is(localErr, core.ErrUnsupported) && errors.Is(shardErr, core.ErrUnsupported) {
				return nil
			}
			return fmt.Errorf("%s: both failed: local=%v sharded=%v", name, localErr, shardErr)
		}
		if !sameBits(local, sharded) {
			return fmt.Errorf("%s: sharded %v != local %v (seed %d): not bit-identical",
				name, sharded, local, opts.Seed)
		}
		return nil
	}
	count := func(name string, site uint64, eval func(opts core.Options) (efloat.E, error)) error {
		opts := core.Options{Epsilon: cfg.Epsilon, Trials: cfg.Trials, Seed: evalSeed(c, site, 0), Obs: cfg.Obs}
		local, localErr := eval(opts)
		opts.Shard = h.Pool
		sharded, shardErr := eval(opts)
		if (localErr == nil) != (shardErr == nil) {
			return fmt.Errorf("%s: error-path asymmetry: local=%v sharded=%v", name, localErr, shardErr)
		}
		if localErr != nil {
			if errors.Is(localErr, core.ErrUnsupported) && errors.Is(shardErr, core.ErrUnsupported) {
				return nil
			}
			return fmt.Errorf("%s: both failed: local=%v sharded=%v", name, localErr, shardErr)
		}
		lm, le := local.Bits()
		sm, se := sharded.Bits()
		if lm != sm || le != se {
			return fmt.Errorf("%s: sharded %v != local %v (seed %d): not bit-identical",
				name, sharded, local, opts.Seed)
		}
		return nil
	}

	if err := prob("shard/pqe", siteShardPQE, nil, func(opts core.Options) (float64, error) {
		return core.PQEEstimate(c.Query, c.H, opts)
	}); err != nil {
		return err
	}
	if err := count("shard/ur", siteShardUR, func(opts core.Options) (efloat.E, error) {
		return core.UREstimate(c.Query, c.H.DB(), opts)
	}); err != nil {
		return err
	}
	if c.Query.IsPath() {
		if err := prob("shard/pathpqe", siteShardPathPQE, nil, func(opts core.Options) (float64, error) {
			return core.PathPQEEstimate(c.Query, c.H, opts)
		}); err != nil {
			return err
		}
		if err := count("shard/path", siteShardPath, func(opts core.Options) (efloat.E, error) {
			return core.PathEstimate(c.Query, c.H.DB(), opts)
		}); err != nil {
			return err
		}
	}
	// Anytime: the coordinator's trial driver owns the batch boundaries,
	// so the executed-trial sequence — and the merged bits — must match
	// local.
	return prob("shard/anytime", siteShardAnytime, func(o *core.Options) { o.Delta = 0.25 },
		func(opts core.Options) (float64, error) {
			return core.PQEEstimate(c.Query, c.H, opts)
		})
}
