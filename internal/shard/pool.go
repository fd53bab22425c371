package shard

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pqe/internal/core"
	"pqe/internal/efloat"
	"pqe/internal/obs"
	"pqe/internal/sched"
	"pqe/internal/trial"
)

// PoolConfig configures a coordinator pool.
type PoolConfig struct {
	// DialTimeout bounds each TCP connect + hello handshake. Default 5s.
	DialTimeout time.Duration
	// CallTimeout bounds one request/response round trip (session
	// install or trial range). A worker that exceeds it is treated as
	// dead for the range, which is then reassigned. Default 2 minutes.
	CallTimeout time.Duration
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Minute
	}
	return c
}

// Stats is a snapshot of a pool's lifetime dispatch counters.
type Stats struct {
	RangesDispatched int64 // contiguous trial ranges sent to workers
	TrialsDispatched int64 // trials covered by those ranges
	Reassigned       int64 // ranges re-run on another worker after a failure
	WorkerFailures   int64 // failed range attempts (timeouts, dead conns, errors)
}

// Pool is the coordinator side of the shard protocol: a fixed set of
// worker addresses, one connection each (redialed lazily after a
// failure, so workers may leave and rejoin between batches). It
// implements core.Sharder.
type Pool struct {
	cfg     PoolConfig
	workers []*workerConn

	ranges     atomic.Int64
	trials     atomic.Int64
	reassigned atomic.Int64
	failures   atomic.Int64
}

// workerConn is one worker endpoint. The mutex serializes the
// connection's request/response round trips; sessions tracks which
// session keys this connection has installed (reset on redial).
type workerConn struct {
	addr     string
	mu       sync.Mutex
	conn     net.Conn
	sessions map[string]bool
}

// Dial connects to every worker address and performs the hello
// handshake. All workers must answer — a coordinator should fail fast
// at setup, not half-shard silently; failures after Dial are handled
// by reassignment.
func Dial(addrs []string, cfg PoolConfig) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("shard: no worker addresses")
	}
	p := &Pool{cfg: cfg.withDefaults()}
	for _, a := range addrs {
		p.workers = append(p.workers, &workerConn{addr: a})
	}
	for _, w := range p.workers {
		w.mu.Lock()
		err := w.ensure(p.cfg.DialTimeout, p.cfg.CallTimeout)
		w.mu.Unlock()
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("shard: worker %s: %w", w.addr, err)
		}
	}
	return p, nil
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Stats returns a snapshot of the dispatch counters.
func (p *Pool) Stats() Stats {
	return Stats{
		RangesDispatched: p.ranges.Load(),
		TrialsDispatched: p.trials.Load(),
		Reassigned:       p.reassigned.Load(),
		WorkerFailures:   p.failures.Load(),
	}
}

// Close drops every worker connection.
func (p *Pool) Close() {
	for _, w := range p.workers {
		w.mu.Lock()
		w.drop()
		w.mu.Unlock()
	}
}

// ensure dials and handshakes the connection if it is down. Caller
// holds w.mu.
func (w *workerConn) ensure(dialTimeout, callTimeout time.Duration) error {
	if w.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", w.addr, dialTimeout)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(callTimeout)
	if err := writeFrame(conn, &request{Op: "hello", Version: ProtocolVersion}, deadline); err != nil {
		conn.Close()
		return err
	}
	var resp response
	if err := readFrame(conn, &resp, deadline); err != nil {
		conn.Close()
		return err
	}
	if !resp.OK {
		conn.Close()
		return errors.New(resp.Err)
	}
	w.conn = conn
	w.sessions = make(map[string]bool)
	return nil
}

// drop closes the connection and forgets its installed sessions.
// Caller holds w.mu.
func (w *workerConn) drop() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
		w.sessions = nil
	}
}

// roundTrip sends one request and reads its response. Transport errors
// drop the connection (the next use redials); application errors come
// back in the response and leave the connection healthy. Caller holds
// w.mu.
func (w *workerConn) roundTrip(req *request, deadline time.Time) (response, error) {
	if err := writeFrame(w.conn, req, deadline); err != nil {
		w.drop()
		return response{}, err
	}
	var resp response
	if err := readFrame(w.conn, &resp, deadline); err != nil {
		w.drop()
		return response{}, err
	}
	return resp, nil
}

// install sends the spec's instance as a session. Caller holds w.mu
// with a live connection.
func (w *workerConn) install(spec core.ShardSpec, key string, deadline time.Time) error {
	resp, err := w.roundTrip(&request{
		Op:       "session",
		Session:  key,
		Query:    spec.Query,
		DB:       spec.DB,
		MaxWidth: spec.MaxWidth,
	}, deadline)
	if err != nil {
		return err
	}
	if !resp.OK {
		return errors.New(resp.Err)
	}
	w.sessions[key] = true
	return nil
}

// countRange executes trials [lo, hi) of the spec on this worker,
// installing the session on first use and transparently re-installing
// it once if the worker evicted it.
func (w *workerConn) countRange(spec core.ShardSpec, key string, lo, hi int, cfg PoolConfig) ([]efloat.E, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ensure(cfg.DialTimeout, cfg.CallTimeout); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cfg.CallTimeout)
	if !w.sessions[key] {
		if err := w.install(spec, key, deadline); err != nil {
			return nil, err
		}
	}
	req := &request{
		Op:      "count",
		Session: key,
		Mode:    spec.Mode,
		N:       spec.N,
		States:  spec.States,
		Epsilon: spec.Epsilon,
		Trials:  spec.Trials,
		Samples: spec.Samples,
		Seed:    spec.Seed,
		Lo:      lo,
		Hi:      hi,
	}
	resp, err := w.roundTrip(req, deadline)
	if err != nil {
		return nil, err
	}
	if !resp.OK && resp.Err == errUnknownSession {
		// The worker evicted (or restarted past) the session since we
		// installed it; re-install and retry once.
		delete(w.sessions, key)
		if err := w.install(spec, key, deadline); err != nil {
			return nil, err
		}
		if resp, err = w.roundTrip(req, deadline); err != nil {
			return nil, err
		}
	}
	if !resp.OK {
		return nil, errors.New(resp.Err)
	}
	if len(resp.Mant) != hi-lo || len(resp.Exp) != hi-lo {
		return nil, fmt.Errorf("shard: worker %s returned %d estimates for range [%d, %d)", w.addr, len(resp.Mant), lo, hi)
	}
	out := make([]efloat.E, hi-lo)
	for i := range out {
		e, err := efloat.FromBits(resp.Mant[i], resp.Exp[i])
		if err != nil {
			return nil, fmt.Errorf("shard: worker %s: %w", w.addr, err)
		}
		out[i] = e
	}
	return out, nil
}

// rangeResult is one dispatched range's outcome.
type rangeResult struct {
	r      sched.Range
	worker int
	vals   []efloat.E
	err    error
	done   time.Time
}

// CountSharded distributes one counting call across the pool and
// merges the result — the core.Sharder implementation.
//
// The spec's schedule runs through the trial driver, exactly as the
// local engines run it: one batch of all Trials for fixed calls, the
// anytime batches with the stop certificate for anytime calls. The
// driver's Exec here cuts each batch into contiguous sub-ranges, one
// per worker; a failed range (timeout, dead connection, worker error)
// is reassigned whole to the next live worker, which is free because
// trial seeds derive from (seed, index), never from placement. The
// merged Result — upper median, executed and saved trials — is
// therefore bit-identical to the local run.
func (p *Pool) CountSharded(sc *obs.Scope, spec core.ShardSpec) (trial.Result, error) {
	key := SpecKey(spec.Query, spec.DB, spec.MaxWidth)
	sc, span := sc.Span("shard.count")
	defer span.End()
	if span != nil {
		span.SetAttr("mode", spec.Mode)
		span.SetAttr("trials", spec.Trials)
		span.SetAttr("workers", len(p.workers))
		span.SetAttr("epsilon", spec.Epsilon)
	}
	reg := sc.Registry()
	conv := sc.Convergence()
	callID := conv.NextCall()
	reg.Counter("shard_calls_total").Inc()

	exec := func(lo, hi int) ([]efloat.E, error) {
		bspan := span.Start("batch")
		if bspan != nil {
			bspan.SetAttr("trial_lo", lo)
			bspan.SetAttr("trial_hi", hi)
		}
		defer bspan.End()
		vals, err := p.dispatch(reg, spec, key, lo, hi)
		if err != nil {
			return nil, err
		}
		if conv != nil {
			for i, v := range vals {
				conv.Record(obs.TrialRecord{
					Engine:       spec.Engine(),
					Call:         callID,
					Trial:        lo + i,
					Trials:       spec.Trials,
					Epsilon:      spec.Epsilon,
					Log2Estimate: trial.Log2(v),
				})
			}
		}
		return vals, nil
	}
	res, err := trial.Run(nil, spec.Schedule(), exec)
	if err != nil {
		return trial.Result{}, err
	}
	reg.Counter("shard_trials_saved_total").Add(int64(res.Saved))
	if span != nil {
		span.SetAttr("trials_executed", res.Executed)
	}
	if res.Executed == 0 {
		return trial.Result{}, errors.New("shard: no trials executed")
	}
	return res, nil
}

// dispatch runs trials [lo, hi) across the pool and returns their
// estimates in trial order: one contiguous sub-range per worker, failed
// ranges reassigned whole to the next live worker.
func (p *Pool) dispatch(reg *obs.Registry, spec core.ShardSpec, key string, lo, hi int) ([]efloat.E, error) {
	ranges := sched.Partition(lo, hi, len(p.workers))
	results := make([]rangeResult, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r sched.Range) {
			defer wg.Done()
			wi := i % len(p.workers)
			vals, err := p.workers[wi].countRange(spec, key, r.Lo, r.Hi, p.cfg)
			results[i] = rangeResult{r: r, worker: wi, vals: vals, err: err, done: time.Now()}
		}(i, r)
	}
	wg.Wait()
	p.ranges.Add(int64(len(ranges)))
	p.trials.Add(int64(hi - lo))
	reg.Counter("shard_ranges_dispatched_total").Add(int64(len(ranges)))
	reg.Counter("shard_trials_dispatched_total").Add(int64(hi - lo))
	// The merge wait is the straggler gap: how long the earliest
	// finisher idled before the batch's last range landed.
	var first, last time.Time
	for _, res := range results {
		if first.IsZero() || res.done.Before(first) {
			first = res.done
		}
		if res.done.After(last) {
			last = res.done
		}
	}
	if !first.IsZero() {
		reg.Histogram("shard_merge_wait_seconds").Observe(last.Sub(first).Seconds())
	}
	// Reassign failed ranges to live workers, whole. Derivation
	// depends only on (seed, site, trial index), so a reassigned range
	// reproduces the exact estimates its original worker would have
	// returned.
	for i := range results {
		res := &results[i]
		first := res.worker
		for off := 1; res.err != nil; off++ {
			p.failures.Add(1)
			reg.CounterVec("shard_worker_failures_total", "worker").With(p.workers[res.worker].addr).Inc()
			if off == len(p.workers) {
				return nil, fmt.Errorf("shard: range [%d, %d) failed on every worker: %w", res.r.Lo, res.r.Hi, res.err)
			}
			res.worker = (first + off) % len(p.workers)
			if res.vals, res.err = p.workers[res.worker].countRange(spec, key, res.r.Lo, res.r.Hi, p.cfg); res.err == nil {
				p.reassigned.Add(1)
				reg.Counter("shard_reassigned_total").Inc()
			}
		}
	}
	vals := make([]efloat.E, 0, hi-lo)
	for _, res := range results {
		reg.CounterVec("shard_worker_trials_total", "worker").With(p.workers[res.worker].addr).Add(int64(res.r.Len()))
		vals = append(vals, res.vals...)
	}
	return vals, nil
}
