package shard

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/gen"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/sched"
)

// startWorkers launches n in-process worker servers on loopback and
// returns their addresses plus a stop function.
func startWorkers(t *testing.T, n int, cfg ServerConfig) ([]string, func()) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		servers[i] = NewServer(cfg)
		go servers[i].Serve(l)
	}
	return addrs, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

const testDB = `R1(a,b) : 1/2
R1(a,c) : 1/3
R2(b,d) : 2/3
R2(c,d) : 1/2
R3(d,e) : 3/4
R3(d,f) : 1/2
`

func testInstance(t *testing.T) (*cq.Query, *pdb.Probabilistic) {
	t.Helper()
	q, err := cq.Parse("R1(x1,x2), R2(x2,x3), R3(x3,x4)")
	if err != nil {
		t.Fatal(err)
	}
	h, err := pdb.ParseString(testDB)
	if err != nil {
		t.Fatal(err)
	}
	return q, h
}

func TestFrameRoundTrip(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	want := request{Op: "count", Session: "k", Mode: core.ShardModePQE,
		N: 7, States: 42, Epsilon: 0.25, Trials: 5, Samples: 96, Seed: -3, Lo: 1, Hi: 4}
	go func() {
		if err := writeFrame(c1, &want, time.Time{}); err != nil {
			t.Error(err)
		}
	}()
	var got request
	if err := readFrame(c2, &got, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("frame round trip: got %+v, want %+v", got, want)
	}
}

func TestFrameTooLarge(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	err := writeFrame(c1, &request{DB: strings.Repeat("x", maxFrame)}, time.Time{})
	c1.Close()
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame accepted: %v", err)
	}
}

func TestSpecKeyDistinguishesInstances(t *testing.T) {
	a := SpecKey("R(x)", "R(a) : 1/2\n", 0)
	if a != SpecKey("R(x)", "R(a) : 1/2\n", 0) {
		t.Error("SpecKey is not deterministic")
	}
	for _, other := range []string{
		SpecKey("R(y)", "R(a) : 1/2\n", 0),
		SpecKey("R(x)", "R(b) : 1/2\n", 0),
		SpecKey("R(x)", "R(a) : 1/2\n", 2),
	} {
		if a == other {
			t.Error("SpecKey collides across distinct instances")
		}
	}
}

func TestPartitionCoversSchedule(t *testing.T) {
	for _, tc := range []struct{ lo, hi, k int }{{0, 5, 2}, {0, 5, 4}, {3, 5, 4}, {0, 8, 3}, {2, 2, 3}, {0, 1, 1}} {
		ranges := sched.Partition(tc.lo, tc.hi, tc.k)
		next := tc.lo
		for _, r := range ranges {
			if r.Lo != next || r.Hi <= r.Lo {
				t.Fatalf("Partition(%d,%d,%d) = %v: not contiguous", tc.lo, tc.hi, tc.k, ranges)
			}
			next = r.Hi
		}
		if next != tc.hi && tc.hi > tc.lo {
			t.Errorf("Partition(%d,%d,%d) = %v: does not cover", tc.lo, tc.hi, tc.k, ranges)
		}
	}
}

// TestBitIdentityAllModes runs the four counting modes sharded at
// worker counts 1, 2 and 4 and asserts every estimate equals the
// in-process run bit for bit.
func TestBitIdentityAllModes(t *testing.T) {
	q, h := testInstance(t)
	opts := core.Options{Epsilon: 0.3, Seed: 7}

	localPQE, err := core.NewEstimator(q, h, opts).PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	localPathPQE, err := core.NewEstimator(q, h, opts).PathPQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	localUR, err := core.NewUREstimator(q, h.DB(), opts).UREstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	localPath, err := core.NewUREstimator(q, h.DB(), opts).PathEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		addrs, stop := startWorkers(t, workers, ServerConfig{MaxProcs: 2})
		pool, err := Dial(addrs, PoolConfig{})
		if err != nil {
			stop()
			t.Fatal(err)
		}
		sopts := opts
		sopts.Shard = pool

		if got, err := core.NewEstimator(q, h, sopts).PQEEstimate(sopts); err != nil {
			t.Errorf("workers=%d: sharded PQE: %v", workers, err)
		} else if math.Float64bits(got) != math.Float64bits(localPQE) {
			t.Errorf("workers=%d: sharded PQE %v != local %v", workers, got, localPQE)
		}
		if got, err := core.NewEstimator(q, h, sopts).PathPQEEstimate(sopts); err != nil {
			t.Errorf("workers=%d: sharded PathPQE: %v", workers, err)
		} else if math.Float64bits(got) != math.Float64bits(localPathPQE) {
			t.Errorf("workers=%d: sharded PathPQE %v != local %v", workers, got, localPathPQE)
		}
		if got, err := core.NewUREstimator(q, h.DB(), sopts).UREstimate(sopts); err != nil {
			t.Errorf("workers=%d: sharded UR: %v", workers, err)
		} else if !bitsEqual(got, localUR) {
			t.Errorf("workers=%d: sharded UR %v != local %v", workers, got, localUR)
		}
		if got, err := core.NewUREstimator(q, h.DB(), sopts).PathEstimate(sopts); err != nil {
			t.Errorf("workers=%d: sharded Path: %v", workers, err)
		} else if !bitsEqual(got, localPath) {
			t.Errorf("workers=%d: sharded Path %v != local %v", workers, got, localPath)
		}

		st := pool.Stats()
		if st.RangesDispatched == 0 || st.TrialsDispatched == 0 {
			t.Errorf("workers=%d: no dispatches recorded: %+v", workers, st)
		}
		pool.Close()
		stop()
	}
}

func bitsEqual(a, b efloat.E) bool {
	am, ae := a.Bits()
	bm, be := b.Bits()
	return am == bm && ae == be
}

// TestBitIdentityAnytime pins the anytime path: the trial driver's batch
// boundaries live on the coordinator and the sharded run must execute
// the same trials and produce the same bits as the local anytime run.
func TestBitIdentityAnytime(t *testing.T) {
	q, h := testInstance(t)
	opts := core.Options{Epsilon: 0.3, Seed: 11, Delta: 0.25, Trials: 9}
	local, err := core.NewEstimator(q, h, opts).PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop := startWorkers(t, 2, ServerConfig{})
	defer stop()
	pool, err := Dial(addrs, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sopts := opts
	sopts.Shard = pool
	got, err := core.NewEstimator(q, h, sopts).PQEEstimate(sopts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(local) {
		t.Errorf("sharded anytime %v != local %v", got, local)
	}
}

// TestSessionEvictionRetry forces the worker's session LRU to evict
// between calls: the coordinator must transparently re-install and the
// results must stay bit-identical.
func TestSessionEvictionRetry(t *testing.T) {
	addrs, stop := startWorkers(t, 1, ServerConfig{MaxSessions: 1})
	defer stop()
	pool, err := Dial(addrs, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	q, h := testInstance(t)
	q2, err := cq.Parse("R1(x1,x2), R2(x2,x3)")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Epsilon: 0.3, Seed: 5}
	local1, err := core.NewEstimator(q, h, opts).PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	local2, err := core.NewEstimator(q2, h, opts).PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}
	sopts := opts
	sopts.Shard = pool
	// Alternate instances: each call evicts the other's session on the
	// 1-slot worker, so every second call exercises the unknown-session
	// re-install path.
	for round := 0; round < 3; round++ {
		got1, err := core.NewEstimator(q, h, sopts).PQEEstimate(sopts)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := core.NewEstimator(q2, h, sopts).PQEEstimate(sopts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got1) != math.Float64bits(local1) || math.Float64bits(got2) != math.Float64bits(local2) {
			t.Fatalf("round %d: eviction broke bit-identity", round)
		}
	}
}

// hangWorker is a fake worker that answers the handshake and session
// install but never answers a count — the timeout/straggler failure
// mode. Returns its address.
func hangWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					var req request
					if err := readFrame(conn, &req, time.Time{}); err != nil {
						return
					}
					switch req.Op {
					case "hello":
						writeFrame(conn, &response{OK: true, Version: ProtocolVersion}, time.Time{})
					case "session":
						writeFrame(conn, &response{OK: true}, time.Time{})
					default:
						select {} // hang forever; the coordinator must time out
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

// TestTimeoutReassignsRange pins the robustness satellite: a worker
// that hangs mid-call times out, its range is reassigned to a live
// worker, and the merged estimate is still bit-identical (derivation
// depends only on trial index, not placement).
func TestTimeoutReassignsRange(t *testing.T) {
	q, h := testInstance(t)
	opts := core.Options{Epsilon: 0.3, Seed: 7}
	local, err := core.NewEstimator(q, h, opts).PQEEstimate(opts)
	if err != nil {
		t.Fatal(err)
	}

	liveAddrs, stop := startWorkers(t, 1, ServerConfig{})
	defer stop()
	addrs := []string{hangWorker(t), liveAddrs[0]}
	pool, err := Dial(addrs, PoolConfig{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	sc := obs.NewScope(nil, obs.NewRegistry(), nil)
	sopts := opts
	sopts.Shard = pool
	sopts.Obs = sc
	got, err := core.NewEstimator(q, h, sopts).PQEEstimate(sopts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(local) {
		t.Errorf("reassigned run %v != local %v", got, local)
	}
	st := pool.Stats()
	if st.Reassigned == 0 {
		t.Errorf("no range was reassigned: %+v", st)
	}
	if st.WorkerFailures == 0 {
		t.Errorf("no worker failure recorded: %+v", st)
	}
	if v := sc.Registry().Counter("shard_reassigned_total").Value(); v == 0 {
		t.Error("shard_reassigned_total not incremented")
	}
}

// TestAllWorkersDead pins the failure mode: when no worker can serve a
// range the call errors instead of silently merging a partial
// schedule.
func TestAllWorkersDead(t *testing.T) {
	addrs, stop := startWorkers(t, 2, ServerConfig{})
	pool, err := Dial(addrs, PoolConfig{DialTimeout: 500 * time.Millisecond, CallTimeout: time.Second})
	if err != nil {
		stop()
		t.Fatal(err)
	}
	defer pool.Close()
	stop() // kill every worker before the call

	q, h := testInstance(t)
	opts := core.Options{Epsilon: 0.3, Seed: 7}
	sopts := opts
	sopts.Shard = pool
	if _, err := core.NewEstimator(q, h, sopts).PQEEstimate(sopts); err == nil {
		t.Fatal("call with all workers dead succeeded")
	}
}

// TestShardedTrialsSavedAttribution: a sharded routed anytime call
// attributes the trials its certificate saved to
// router_trials_saved_total exactly as the local call does — the
// coordinator's trial driver reports them, not the engines' counters.
func TestShardedTrialsSavedAttribution(t *testing.T) {
	addrs, stop := startWorkers(t, 2, ServerConfig{MaxProcs: 2})
	defer stop()
	pool, err := Dial(addrs, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	q := cq.PathQuery("R", 3)
	h := gen.Instance(q, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 13})
	saved := func(shard core.Sharder) (int64, float64) {
		reg := obs.NewRegistry()
		res, err := core.Evaluate(q, h, core.Options{
			Epsilon: 0.3, Trials: 15, Seed: 1, MaxProcs: 1, Strategy: "auto", Shard: shard,
			Obs: obs.NewScope(nil, reg, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Counter("router_trials_saved_total").Value(), res.Probability
	}
	local, localP := saved(nil)
	sharded, shardedP := saved(pool)
	if local == 0 {
		t.Fatal("local anytime call saved no trials; the probe needs an early stop")
	}
	if sharded != local {
		t.Errorf("sharded router_trials_saved_total = %d, local %d", sharded, local)
	}
	if math.Float64bits(shardedP) != math.Float64bits(localP) {
		t.Errorf("sharded estimate %v != local %v", shardedP, localP)
	}
}
