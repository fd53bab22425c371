package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
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
	// DialTimeout bounds each TCP connect to a worker. Default 5s.
	DialTimeout time.Duration
	// CallTimeout bounds one range request, response included. A
	// worker that exceeds it is treated as dead for the range, which is
	// reassigned; the worker's range is cancelled. Default 2 minutes.
	CallTimeout time.Duration
}

// Stats is a snapshot of a pool's lifetime dispatch counters.
type Stats struct {
	RangesDispatched int64 // contiguous trial ranges sent to workers
	TrialsDispatched int64 // trials covered by those ranges
	Reassigned       int64 // ranges re-run on another worker after a failure
	WorkerFailures   int64 // failed range attempts (timeouts, dead workers, errors)
}

// Pool is the coordinator side of trial sharding: a fixed set of
// worker addresses behind one HTTP client, whose connection pool
// redials after a failure, so workers may leave and rejoin between
// batches. It is safe for concurrent use and implements core.Sharder.
type Pool struct {
	addrs  []string
	client *http.Client
	ctx    context.Context // cancelled by Close
	cancel context.CancelFunc

	ranges     atomic.Int64
	trials     atomic.Int64
	reassigned atomic.Int64
	failures   atomic.Int64
}

// Dial probes every worker with an empty range. All must answer — a
// coordinator fails fast at setup rather than half-shard silently;
// failures after Dial are handled by reassignment.
func Dial(addrs []string, cfg PoolConfig) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("shard: no worker addresses")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Minute
	}
	p := &Pool{
		addrs: slices.Clone(addrs),
		client: &http.Client{
			Transport: &http.Transport{DialContext: (&net.Dialer{Timeout: cfg.DialTimeout}).DialContext},
			Timeout:   cfg.CallTimeout,
		},
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	for _, a := range p.addrs {
		if _, err := p.countRange("", a, core.ShardSpec{}, 0, 0); err != nil {
			p.Close()
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	return p, nil
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.addrs) }

// Stats returns a snapshot of the dispatch counters.
func (p *Pool) Stats() Stats {
	return Stats{
		RangesDispatched: p.ranges.Load(),
		TrialsDispatched: p.trials.Load(),
		Reassigned:       p.reassigned.Load(),
		WorkerFailures:   p.failures.Load(),
	}
}

// Close cancels every request in flight, so their evaluations fail as
// if the workers died, and drops the idle connections.
func (p *Pool) Close() {
	p.cancel()
	p.client.CloseIdleConnections()
}

// countRange posts trials [lo, hi) of the spec, tagged with request ID
// reqID, to the worker at addr and returns their estimates in order.
func (p *Pool) countRange(reqID, addr string, spec core.ShardSpec, lo, hi int) ([]efloat.E, error) {
	body, err := json.Marshal(rangeRequest{ShardSpec: spec, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(p.ctx, http.MethodPost, "http://"+addr+rangePath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Reading to EOF lets the connection go back to the pool.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker %s: %s: %s", addr, resp.Status, bytes.TrimSpace(data))
	}
	var out rangeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("worker %s: %w", addr, err)
	}
	if len(out.Mant) != hi-lo || len(out.Exp) != hi-lo {
		return nil, fmt.Errorf("worker %s returned %d estimates for range [%d, %d)", addr, len(out.Mant), lo, hi)
	}
	vals := make([]efloat.E, hi-lo)
	for i := range vals {
		if vals[i], err = efloat.FromBits(out.Mant[i], out.Exp[i]); err != nil {
			return nil, fmt.Errorf("worker %s: %w", addr, err)
		}
	}
	return vals, nil
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
// per worker; a failed range (timeout, dead worker, worker error)
// is reassigned whole to the next live worker, which is free because
// trial seeds derive from (seed, index), never from placement. The
// merged Result — upper median, executed and saved trials — is
// therefore bit-identical to the local run.
func (p *Pool) CountSharded(sc *obs.Scope, spec core.ShardSpec) (trial.Result, error) {
	reqID := sc.RequestID()
	sc, span := sc.Span("shard.count")
	defer span.End()
	if span != nil {
		span.SetAttr("mode", spec.Mode)
		span.SetAttr("trials", spec.Trials)
		span.SetAttr("workers", len(p.addrs))
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
		vals, err := p.dispatch(reg, reqID, spec, lo, hi)
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
func (p *Pool) dispatch(reg *obs.Registry, reqID string, spec core.ShardSpec, lo, hi int) ([]efloat.E, error) {
	ranges := sched.Partition(lo, hi, len(p.addrs))
	results := make([]rangeResult, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r sched.Range) {
			defer wg.Done()
			wi := i % len(p.addrs)
			vals, err := p.countRange(reqID, p.addrs[wi], spec, r.Lo, r.Hi)
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
			reg.CounterVec("shard_worker_failures_total", "worker").With(p.addrs[res.worker]).Inc()
			if off == len(p.addrs) {
				return nil, fmt.Errorf("shard: range [%d, %d) failed on every worker: %w", res.r.Lo, res.r.Hi, res.err)
			}
			res.worker = (first + off) % len(p.addrs)
			if res.vals, res.err = p.countRange(reqID, p.addrs[res.worker], spec, res.r.Lo, res.r.Hi); res.err == nil {
				p.reassigned.Add(1)
				reg.Counter("shard_reassigned_total").Inc()
			}
		}
	}
	vals := make([]efloat.E, 0, hi-lo)
	for _, res := range results {
		reg.CounterVec("shard_worker_trials_total", "worker").With(p.addrs[res.worker]).Add(int64(res.r.Len()))
		vals = append(vals, res.vals...)
	}
	return vals, nil
}
