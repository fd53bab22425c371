package trial

import (
	"context"
	"errors"
	"math"
	"testing"

	"pqe/internal/efloat"
)

func TestFloorDerivation(t *testing.T) {
	cases := []struct {
		delta float64
		cap   int
		floor int
	}{
		{0.1, 5, 3},    // log₄(10) ≈ 1.66 → 2 → min 3
		{0.25, 5, 3},   // log₄(4) = 1 → min 3
		{0.01, 9, 5},   // log₄(100) ≈ 3.32 → 4 → odd 5
		{0.001, 11, 5}, // log₄(1000) ≈ 4.98 → 5
		{1e-6, 11, 11}, // log₄(1e6) ≈ 9.97 → 10 → odd 11
		{1e-9, 11, 11}, // floor clamps to cap
		{0, 5, 3},      // default δ
	}
	for _, c := range cases {
		p := newStopRule(0.1, c.delta, c.cap)
		if p.Floor != c.floor {
			t.Errorf("newStopRule(δ=%v, cap=%d): floor %d, want %d", c.delta, c.cap, p.Floor, c.floor)
		}
		if p.Floor > p.Cap {
			t.Errorf("newStopRule(δ=%v, cap=%d): floor %d exceeds cap", c.delta, c.cap, p.Floor)
		}
	}
}

func TestNextBatchSchedule(t *testing.T) {
	p := newStopRule(0.1, 0.1, 11) // floor 3
	var got []int
	executed := 0
	for executed < p.Cap {
		executed = p.NextBatch(executed)
		got = append(got, executed)
	}
	want := []int{3, 5, 7, 9, 11}
	if len(got) != len(want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %v, want %v", got, want)
		}
	}
	// Cap smaller than the derived floor: one batch of cap trials.
	p = newStopRule(0.1, 0.1, 2)
	if n := p.NextBatch(0); n != 2 {
		t.Errorf("cap<floor first batch = %d, want 2", n)
	}
}

func TestStopCertificate(t *testing.T) {
	p := newStopRule(0.1, 0.1, 9) // floor 3, band = log2(1.1)-log2(0.9)
	if p.Stop([]float64{10, 10}) {
		t.Error("stopped below the floor")
	}
	if !p.Stop([]float64{10, 10.01, 9.99}) {
		t.Error("agreeing trials past the floor should stop")
	}
	if p.Stop([]float64{10, 12, 10}) {
		t.Error("spread beyond the band should not stop")
	}
	// All-zero estimates agree (spread 0).
	inf := math.Inf(-1)
	if !p.Stop([]float64{inf, inf, inf}) {
		t.Error("all-zero trials should stop")
	}
	// Zero/nonzero mix never stops.
	if p.Stop([]float64{inf, 10, 10}) {
		t.Error("zero/nonzero mix must not stop")
	}
}

func TestSpread(t *testing.T) {
	inf := math.Inf(-1)
	if s := spread(nil); !math.IsInf(s, 1) {
		t.Errorf("spread(nil) = %v, want +Inf", s)
	}
	if s := spread([]float64{inf, inf}); s != 0 {
		t.Errorf("spread(all -Inf) = %v, want 0", s)
	}
	if s := spread([]float64{inf, 3}); !math.IsInf(s, 1) {
		t.Errorf("spread(mixed) = %v, want +Inf", s)
	}
	if s := spread([]float64{1, 4, 2}); s != 3 {
		t.Errorf("spread = %v, want 3", s)
	}
}

func TestBandMatchesEpsilon(t *testing.T) {
	p := newStopRule(0.2, 0.1, 5)
	want := math.Log2(1.2) - math.Log2(0.8)
	if math.Abs(p.Band-want) > 1e-15 {
		t.Errorf("band %v, want %v", p.Band, want)
	}
}

func TestResolveDefaults(t *testing.T) {
	s := Schedule{}.Resolve()
	if s.Epsilon != 0.1 || s.Trials != 5 || s.Samples != 600 || s.Seed != 1 {
		t.Errorf("zero schedule resolved to %+v", s)
	}
	s = Schedule{Epsilon: 0.5, Trials: 3, Seed: -4}.Resolve()
	if s.Epsilon != 0.5 || s.Trials != 3 || s.Samples != 24 || s.Seed != -4 {
		t.Errorf("explicit schedule resolved to %+v", s)
	}
	if s := (Schedule{Epsilon: 1.5}).Resolve(); s.Epsilon != 0.1 {
		t.Errorf("out-of-range ε resolved to %v", s.Epsilon)
	}
}

// Seeds depend on the schedule's Seed and the trial index only: a
// longer schedule extends a shorter one's sequence.
func TestSeedsArePrefixStable(t *testing.T) {
	short := Schedule{Trials: 3, Seed: 9}.Seeds()
	long := Schedule{Trials: 7, Seed: 9}.Seeds()
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("seed %d: %d vs %d", i, short[i], long[i])
		}
	}
	if other := (Schedule{Trials: 3, Seed: 10}).Seeds(); other[0] == short[0] {
		t.Error("different seeds gave the same first trial seed")
	}
}

// byIndex is an Exec whose trial t estimates est(t), recording the
// ranges it was asked for.
func byIndex(est func(t int) efloat.E, ranges *[][2]int) Exec {
	return func(lo, hi int) ([]efloat.E, error) {
		*ranges = append(*ranges, [2]int{lo, hi})
		out := make([]efloat.E, hi-lo)
		for i := range out {
			out[i] = est(lo + i)
		}
		return out, nil
	}
}

func TestRunFixedIsOneBatch(t *testing.T) {
	var ranges [][2]int
	res, err := Run(nil, Schedule{Trials: 5}.Resolve(), byIndex(func(t int) efloat.E { return efloat.FromInt(int64(10 - t)) }, &ranges))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 1 || ranges[0] != [2]int{0, 5} {
		t.Errorf("fixed schedule ran ranges %v, want [[0 5]]", ranges)
	}
	// Estimates 10, 9, 8, 7, 6: upper median 8.
	if res.Value.Cmp(efloat.FromInt(8)) != 0 || res.Executed != 5 || res.Saved != 0 {
		t.Errorf("fixed result %+v", res)
	}
}

func TestRunAnytimeStopsAtFloor(t *testing.T) {
	var ranges [][2]int
	s := Schedule{Trials: 15, Anytime: true}.Resolve()
	res, err := Run(nil, s, byIndex(func(int) efloat.E { return efloat.FromInt(42) }, &ranges))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 3 || res.Saved != 12 || len(ranges) != 1 {
		t.Errorf("agreeing trials: result %+v over ranges %v, want 3 executed in one batch", res, ranges)
	}
}

// Disagreeing trials run every batch up to the cap, and the result
// equals the fixed schedule's.
func TestRunAnytimeAtCapMatchesFixed(t *testing.T) {
	est := func(t int) efloat.E { return efloat.FromInt(int64(1 + t*t*1000)) }
	var fixedRanges, anyRanges [][2]int
	fixed, _ := Run(nil, Schedule{Trials: 7}.Resolve(), byIndex(est, &fixedRanges))
	any, _ := Run(nil, Schedule{Trials: 7, Anytime: true}.Resolve(), byIndex(est, &anyRanges))
	if fixed.Value.Cmp(any.Value) != 0 || any.Executed != 7 || any.Saved != 0 {
		t.Errorf("anytime at cap %+v, fixed %+v", any, fixed)
	}
	want := [][2]int{{0, 3}, {3, 5}, {5, 7}}
	if len(anyRanges) != len(want) {
		t.Fatalf("anytime ranges %v, want %v", anyRanges, want)
	}
	for i := range want {
		if anyRanges[i] != want[i] {
			t.Fatalf("anytime ranges %v, want %v", anyRanges, want)
		}
	}
}

func TestRunStopsOnCancelAndError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ranges [][2]int
	res, err := Run(ctx, Schedule{Trials: 5, Anytime: true}.Resolve(), byIndex(func(int) efloat.E { return efloat.One }, &ranges))
	if err != nil || res.Executed != 0 || res.Saved != 0 || len(ranges) != 0 {
		t.Errorf("cancelled anytime run: %+v, %v, ranges %v; a cancelled call saves nothing", res, err, ranges)
	}
	// Cancelled mid-batch: the skipped trials' zero estimates agree,
	// but the run must not count that as a certificate stop.
	ctx, cancel = context.WithCancel(context.Background())
	res, err = Run(ctx, Schedule{Trials: 9, Anytime: true}.Resolve(), func(lo, hi int) ([]efloat.E, error) {
		cancel()
		return make([]efloat.E, hi-lo), nil
	})
	if err != nil || res.Executed != 3 || res.Saved != 0 {
		t.Errorf("run cancelled mid-batch: %+v, %v; want 3 executed, 0 saved", res, err)
	}
	boom := errors.New("boom")
	_, err = Run(nil, Schedule{Trials: 5}.Resolve(), func(lo, hi int) ([]efloat.E, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("exec error not returned: %v", err)
	}
	_, err = Run(nil, Schedule{Trials: 5}.Resolve(), func(lo, hi int) ([]efloat.E, error) { return nil, nil })
	if err == nil {
		t.Error("short exec result accepted")
	}
}
