package sched

import (
	"sync/atomic"
	"testing"
)

// The scheduler must hand every trial index to the body exactly once
// and Sum must cover [0, n) exactly, at every proc count.
func TestRunCoversTrialsAndChunks(t *testing.T) {
	const trials, n = 7, 1000
	for _, procs := range []int{1, 2, 3, 8} {
		var trialHits [trials]int32
		var sampleHits [n]int32
		totals := make([]int64, trials)
		st := Run(Config{Procs: procs, Trials: trials}, func(w *Worker, trial int) {
			atomic.AddInt32(&trialHits[trial], 1)
			got := w.Sum(n, func(w *Worker, lo, hi int) int {
				c := 0
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&sampleHits[i], 1)
					c += i
				}
				return c
			})
			atomic.AddInt64(&totals[trial], int64(got))
		})
		for i, h := range trialHits {
			if h != 1 {
				t.Fatalf("procs=%d: trial %d ran %d times", procs, i, h)
			}
		}
		for i, h := range sampleHits {
			if h != int32(trials) {
				t.Fatalf("procs=%d: sample %d covered %d times, want %d", procs, i, h, trials)
			}
		}
		want := int64(trials) * int64(n*(n-1)/2)
		var sum int64
		for _, v := range totals {
			sum += v
		}
		if sum != want {
			t.Fatalf("procs=%d: Sum total %d, want %d", procs, sum, want)
		}
		if st.Procs != procs {
			t.Fatalf("procs=%d: stats report %d procs", procs, st.Procs)
		}
	}
}

// A single straggler trial must have its chunks executed by the idle
// workers: with procs > trials, steals are the only way the extra
// workers contribute. The batch owner always claims its chunk 0 first;
// blocking it there until another worker has finished a chunk forces at
// least one steal even on a single-CPU machine.
func TestStealsDrainStraggler(t *testing.T) {
	const n = 100000
	var ran int64
	var othersRan int32
	gate := make(chan struct{})
	st := Run(Config{Procs: 4, Trials: 1}, func(w *Worker, trial int) {
		got := w.Sum(n, func(w *Worker, lo, hi int) int {
			if lo == 0 {
				<-gate
			} else if atomic.AddInt32(&othersRan, 1) == 1 {
				close(gate)
			}
			atomic.AddInt64(&ran, int64(hi-lo))
			return hi - lo
		})
		if got != n {
			t.Errorf("Sum returned %d, want %d", got, n)
		}
	})
	if ran != n {
		t.Fatalf("executed %d samples, want %d", ran, n)
	}
	if st.Steals == 0 {
		t.Fatalf("no steals recorded with 4 procs and 1 trial: %+v", st)
	}
	if st.Chunks == 0 || st.Batches == 0 || st.MaxQueue == 0 {
		t.Fatalf("queue statistics not recorded: %+v", st)
	}
}

// Workers hand out dense IDs in [0, Procs) so callers can keep
// worker-local scratch in a flat slice.
func TestWorkerIDsDense(t *testing.T) {
	const procs = 5
	var seen [procs]int32
	Run(Config{Procs: procs, Trials: 3}, func(w *Worker, trial int) {
		w.Sum(10000, func(w *Worker, lo, hi int) int {
			if w.ID() < 0 || w.ID() >= procs {
				t.Errorf("worker ID %d out of range [0,%d)", w.ID(), procs)
			}
			atomic.AddInt32(&seen[w.ID()], 1)
			return 0
		})
	})
}

// The inline path (procs ≤ 1) must run trials in order on the caller
// with no chunk machinery, and tiny ranges must not be cut at all.
func TestInlineSequential(t *testing.T) {
	var order []int
	st := Run(Config{Procs: 1, Trials: 4}, func(w *Worker, trial int) {
		order = append(order, trial)
		if got := w.Sum(5, func(w *Worker, lo, hi int) int { return hi - lo }); got != 5 {
			t.Errorf("inline Sum returned %d, want 5", got)
		}
	})
	for i, tr := range order {
		if tr != i {
			t.Fatalf("inline trials out of order: %v", order)
		}
	}
	if st.Spawns != 0 || st.Steals != 0 {
		t.Fatalf("inline run recorded pool activity: %+v", st)
	}
}

// Sum with n ≤ 0 and Run with no trials are no-ops.
func TestEmptyWork(t *testing.T) {
	st := Run(Config{Procs: 4, Trials: 0}, func(w *Worker, trial int) {
		t.Error("body called with zero trials")
	})
	if st.Spawns != 0 {
		t.Fatalf("zero-trial run spawned workers: %+v", st)
	}
	Run(Config{Procs: 2, Trials: 1}, func(w *Worker, trial int) {
		if got := w.Sum(0, func(w *Worker, lo, hi int) int { return 1 }); got != 0 {
			t.Errorf("Sum(0) returned %d", got)
		}
	})
}

func TestPartition(t *testing.T) {
	for _, tc := range []struct {
		lo, hi, k int
		want      []Range
	}{
		{0, 10, 2, []Range{{0, 5}, {5, 10}}},
		{0, 10, 3, []Range{{0, 4}, {4, 7}, {7, 10}}},
		{3, 8, 2, []Range{{3, 6}, {6, 8}}},
		{0, 2, 5, []Range{{0, 1}, {1, 2}}}, // more workers than trials: no empty ranges
		{0, 1, 1, []Range{{0, 1}}},
		{5, 5, 3, nil}, // empty schedule
		{0, 4, 0, nil}, // no workers
	} {
		got := Partition(tc.lo, tc.hi, tc.k)
		if len(got) != len(tc.want) {
			t.Errorf("Partition(%d,%d,%d) = %v, want %v", tc.lo, tc.hi, tc.k, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Partition(%d,%d,%d)[%d] = %v, want %v", tc.lo, tc.hi, tc.k, i, got[i], tc.want[i])
			}
		}
	}
}

// Partition must tile [lo, hi) exactly: contiguous, non-empty, in order.
func TestPartitionTiles(t *testing.T) {
	for lo := 0; lo < 4; lo++ {
		for hi := lo; hi < lo+20; hi++ {
			for k := 1; k <= 6; k++ {
				next := lo
				for _, r := range Partition(lo, hi, k) {
					if r.Lo != next || r.Len() <= 0 {
						t.Fatalf("Partition(%d,%d,%d) broken at %v", lo, hi, k, r)
					}
					next = r.Hi
				}
				if next != hi {
					t.Fatalf("Partition(%d,%d,%d) covers [%d,%d), want [%d,%d)", lo, hi, k, lo, next, lo, hi)
				}
			}
		}
	}
}
