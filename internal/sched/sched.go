// Package sched implements the work-stealing scheduler shared by the
// approximate counting engines (internal/count for trees, internal/nfa
// for strings). One call spawns one bounded pool of workers; work items
// are whole trials (independent median-boosted estimates) and, inside a
// trial, contiguous chunks of an overlap-sampling loop. A worker first
// claims trials; when none remain it steals sample chunks from any
// in-flight trial, so a straggler trial never leaves workers idle — the
// failure mode of the previous per-trial goroutine × per-site worker
// pool split.
//
// Determinism is the caller's contract, not the scheduler's: both
// engines derive one PRNG per sample from (trial seed, site, sample
// index) and combine chunk results by integer addition, so any
// partition of the sample range across any number of workers yields
// bit-identical estimates. The scheduler only ever changes *who* runs a
// chunk, never what the chunk computes.
package sched

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"
)

// Config configures one Run call.
type Config struct {
	// Procs is the worker count (the caller's goroutine is worker 0;
	// Procs−1 more are spawned). Values ≤ 1 run everything inline on the
	// caller with no locking.
	Procs int
	// Trials is the number of trial work items, dispatched to body in
	// index order.
	Trials int
	// Timed enables per-chunk busy-time measurement (Stats.BusyNs).
	Timed bool
	// Labels are pprof label key/value pairs applied to spawned workers.
	Labels []string
}

// Stats reports what one Run did, for the engines' telemetry registry.
type Stats struct {
	Procs    int
	Spawns   int64 // goroutines spawned (Procs−1; 0 inline)
	Batches  int64 // Sum calls that went through the shared queue
	Chunks   int64 // chunks executed through the queue
	Steals   int64 // chunks executed by a worker other than the batch owner
	MaxQueue int   // peak number of unclaimed chunks
	BusyNs   int64 // summed chunk execution time (Timed only)
}

// Accumulate folds another Run's statistics into s (keeping the larger
// MaxQueue) — the anytime engines run one scheduler pool per trial
// batch and report the batches' combined effort.
func (s *Stats) Accumulate(o Stats) {
	if o.Procs > s.Procs {
		s.Procs = o.Procs
	}
	s.Spawns += o.Spawns
	s.Batches += o.Batches
	s.Chunks += o.Chunks
	s.Steals += o.Steals
	s.BusyNs += o.BusyNs
	if o.MaxQueue > s.MaxQueue {
		s.MaxQueue = o.MaxQueue
	}
}

// Worker is the execution context handed to trial bodies and chunk
// functions. Its ID is a dense index in [0, Procs), stable for the
// worker's lifetime, so callers can maintain worker-local scratch
// (samplers) in a flat slice.
type Worker struct {
	p      *pool
	id     int
	steals int64
	chunks int64
	busyNs int64
}

// ID returns the worker's dense index in [0, Procs).
func (w *Worker) ID() int { return w.id }

// batch is one Sum call's chunk queue: the half-open range [0, n) cut
// into ⌈n/grain⌉ chunks, claimed in order. Chunk i covers
// [i·grain, min((i+1)·grain, n)). All fields are guarded by the pool
// mutex except fn, owner, n, grain and nchunks, which are frozen before
// the batch is published.
type batch struct {
	owner   int
	fn      func(w *Worker, start, end int) int
	n       int
	grain   int
	nchunks int
	next    int   // next unclaimed chunk index
	running int   // claimed but unfinished chunks
	total   int64 // accumulated chunk results
}

type pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	cfg  Config
	body func(w *Worker, trial int)

	nextTrial  int
	doneTrials int
	batches    []*batch
	queued     int // unclaimed chunks across all batches
	maxQueue   int
	nbatches   int64
}

// chunksPerWorker targets this many chunks per worker and batch: enough
// slack that an early-finishing worker finds something to steal, few
// enough that queue traffic stays negligible next to the sampling work.
const chunksPerWorker = 4

// minGrain is the smallest chunk worth a trip through the queue: below
// this, mutex traffic would rival the sampling work itself.
const minGrain = 32

// Run executes body for every trial index in [0, Trials) across a pool
// of cfg.Procs workers and returns the scheduling statistics. The
// caller's goroutine participates as worker 0; Run returns when every
// trial (and every chunk its body fanned out) has completed.
func Run(cfg Config, body func(w *Worker, trial int)) Stats {
	if cfg.Trials <= 0 {
		return Stats{Procs: 1}
	}
	if cfg.Procs <= 1 {
		w := &Worker{}
		for t := 0; t < cfg.Trials; t++ {
			body(w, t)
		}
		return Stats{Procs: 1}
	}
	p := &pool{cfg: cfg, body: body}
	p.cond = sync.NewCond(&p.mu)
	workers := make([]*Worker, cfg.Procs)
	for i := range workers {
		workers[i] = &Worker{p: p, id: i}
	}
	var wg sync.WaitGroup
	for i := 1; i < cfg.Procs; i++ {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if len(cfg.Labels) > 0 {
				pprof.Do(context.Background(), pprof.Labels(cfg.Labels...), func(context.Context) {
					p.loop(w)
				})
			} else {
				p.loop(w)
			}
		}(workers[i])
	}
	p.loop(workers[0])
	wg.Wait()
	st := Stats{
		Procs:    cfg.Procs,
		Spawns:   int64(cfg.Procs - 1),
		Batches:  p.nbatches,
		MaxQueue: p.maxQueue,
	}
	for _, w := range workers {
		st.Steals += w.steals
		st.Chunks += w.chunks
		st.BusyNs += w.busyNs
	}
	return st
}

// loop is one worker's scheduling loop: claim trials while any remain,
// then steal chunks, then sleep until new work or completion.
func (p *pool) loop(w *Worker) {
	p.mu.Lock()
	for {
		if p.nextTrial < p.cfg.Trials {
			t := p.nextTrial
			p.nextTrial++
			p.mu.Unlock()
			p.body(w, t)
			p.mu.Lock()
			p.doneTrials++
			if p.doneTrials == p.cfg.Trials {
				p.cond.Broadcast()
			}
			continue
		}
		if b, lo, hi := p.claimLocked(); b != nil {
			if b.owner != w.id {
				w.steals++
			}
			p.runChunkLocked(w, b, lo, hi)
			continue
		}
		if p.doneTrials == p.cfg.Trials {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// claimLocked pops the next unclaimed chunk of any in-flight batch.
func (p *pool) claimLocked() (*batch, int, int) {
	for _, b := range p.batches {
		if b.next < b.nchunks {
			i := b.next
			b.next++
			b.running++
			p.queued--
			lo := i * b.grain
			hi := lo + b.grain
			if hi > b.n {
				hi = b.n
			}
			return b, lo, hi
		}
	}
	return nil, 0, 0
}

// runChunkLocked executes one claimed chunk (dropping the pool lock for
// the duration), folds its result into the batch, and wakes the owner
// in case this was the batch's last outstanding chunk. Called with the
// lock held; returns with it held.
func (p *pool) runChunkLocked(w *Worker, b *batch, lo, hi int) {
	w.chunks++
	p.mu.Unlock()
	var t0 time.Time
	if p.cfg.Timed {
		t0 = time.Now()
	}
	r := b.fn(w, lo, hi)
	if p.cfg.Timed {
		w.busyNs += time.Since(t0).Nanoseconds()
	}
	p.mu.Lock()
	b.total += int64(r)
	b.running--
	if b.running == 0 && b.next == b.nchunks {
		p.cond.Broadcast()
	}
}

// Sum evaluates Σ fn(w, lo, hi) over a partition of [0, n) into
// contiguous chunks and returns the total. On a single-proc pool (or
// for ranges too small to cut) it is one inline call. Otherwise the
// chunks are published to the pool: idle workers steal them while the
// submitting worker processes its own share, helps other batches, and
// blocks until its last chunk drains. fn must not call Sum (chunks
// never fan out again) and must be safe to run on any worker — the
// engines bind worker-local samplers by w.ID().
//
// Because integer addition is commutative and associative and the
// engines give every sample index its own derived PRNG, the total is
// independent of the partition and of which worker runs which chunk.
func (w *Worker) Sum(n int, fn func(w *Worker, start, end int) int) int {
	p := w.p
	if p == nil || n <= 0 {
		if n <= 0 {
			return 0
		}
		return fn(w, 0, n)
	}
	grain := (n + p.cfg.Procs*chunksPerWorker - 1) / (p.cfg.Procs * chunksPerWorker)
	if grain < minGrain {
		grain = minGrain
	}
	if grain >= n {
		return fn(w, 0, n)
	}
	b := &batch{owner: w.id, fn: fn, n: n, grain: grain, nchunks: (n + grain - 1) / grain}
	p.mu.Lock()
	p.batches = append(p.batches, b)
	p.queued += b.nchunks
	p.nbatches++
	if p.queued > p.maxQueue {
		p.maxQueue = p.queued
	}
	p.cond.Broadcast()
	for {
		if b.next < b.nchunks {
			i := b.next
			b.next++
			b.running++
			p.queued--
			lo := i * b.grain
			hi := lo + b.grain
			if hi > b.n {
				hi = b.n
			}
			p.runChunkLocked(w, b, lo, hi)
			continue
		}
		if b.running == 0 {
			break
		}
		// All of this batch's chunks are claimed but some are still
		// running elsewhere: help other batches rather than idling.
		if ob, lo, hi := p.claimLocked(); ob != nil {
			if ob.owner != w.id {
				w.steals++
			}
			p.runChunkLocked(w, ob, lo, hi)
			continue
		}
		p.cond.Wait()
	}
	for i, x := range p.batches {
		if x == b {
			p.batches = append(p.batches[:i], p.batches[i+1:]...)
			break
		}
	}
	total := b.total
	p.mu.Unlock()
	return int(total)
}

// Range is a half-open contiguous index range [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices the range covers.
func (r Range) Len() int { return r.Hi - r.Lo }

// Partition cuts [lo, hi) into at most k contiguous ranges of
// near-equal length (the first (hi−lo) mod k ranges are one longer).
// Empty ranges are never emitted, so fewer than k come back when the
// span is shorter than k. A pure function of its arguments — the shard
// coordinator relies on that to keep batch boundaries deterministic.
func Partition(lo, hi, k int) []Range {
	n := hi - lo
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]Range, 0, k)
	base, extra := n/k, n%k
	start := lo
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, Range{Lo: start, Hi: start + size})
		start += size
	}
	return out
}
