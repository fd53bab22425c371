package main

import (
	"slices"
	"testing"
	"time"

	"pqe/internal/obs"
)

// An op that outlasts the row's whole budget is timed once.
func TestMeasureLongOpTakesOneSample(t *testing.T) {
	r := measure(func(*obs.Scope, int) { time.Sleep(benchTime + 10*time.Millisecond) })[0]
	if r.Samples != 1 || r.Ops != 1 || r.NsSpread != 0 {
		t.Errorf("samples=%d ops=%d spread=%d, want one sample of one op and no spread", r.Samples, r.Ops, r.NsSpread)
	}
}

// A cheap op fills every slice, and ns_per_op is the median sample.
func TestMeasureCheapOpTakesEverySample(t *testing.T) {
	r := measure(func(*obs.Scope, int) { time.Sleep(100 * time.Microsecond) })[0]
	if r.Samples != maxSamples || len(r.sampleNs) != maxSamples {
		t.Fatalf("samples=%d (%d recorded), want %d", r.Samples, len(r.sampleNs), maxSamples)
	}
	xs := slices.Clone(r.sampleNs)
	slices.Sort(xs)
	if r.NsPerOp != xs[maxSamples/2] {
		t.Errorf("ns_per_op %d, median sample %d of %v", r.NsPerOp, xs[maxSamples/2], r.sampleNs)
	}
	if r.NsSpread != xs[3*maxSamples/4]-xs[maxSamples/4] {
		t.Errorf("ns_spread %d, quartile distance of %v is %d", r.NsSpread, xs, xs[3*maxSamples/4]-xs[maxSamples/4])
	}
}

// Two ops given to one measure call run their slices alternately, each
// numbering its own ops from 0, and each row reads the registry its own
// ops ran under.
func TestMeasureAlternatesSlices(t *testing.T) {
	var log []int
	op := func(id int) func(*obs.Scope, int) {
		next := 0
		return func(sc *obs.Scope, i int) {
			if i != next {
				t.Fatalf("op %d called with i=%d, want %d", id, i, next)
			}
			next++
			sc.Registry().Counter("ops_total").Inc()
			if len(log) == 0 || log[len(log)-1] != id {
				log = append(log, id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rows := measure(op(0), op(1))
	want := make([]int, 0, 2*maxSamples)
	for k := 0; k < maxSamples; k++ {
		want = append(want, 0, 1)
	}
	if !slices.Equal(log, want) {
		t.Errorf("slice order %v, want %v", log, want)
	}
	for j, r := range rows {
		if r.Samples != maxSamples {
			t.Errorf("op %d: %d samples, want %d", j, r.Samples, maxSamples)
		}
		if got := r.perOp("ops_total"); got != 1 {
			t.Errorf("op %d: registry counts %d per op, want 1", j, got)
		}
	}
}
