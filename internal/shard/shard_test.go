package shard

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/gen"
	"pqe/internal/lru"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/sched"
)

// serveWorker serves s on a loopback listener until the test ends and
// returns its address.
func serveWorker(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return l.Addr().String()
}

// startWorkers launches n in-process worker servers on loopback and
// returns their addresses plus a stop function.
func startWorkers(t *testing.T, n int, cfg ServerConfig) ([]string, func()) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = NewServer(cfg)
		addrs[i] = serveWorker(t, servers[i])
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

// fill is an endless reader of one byte value.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestRangeHandlerRejectsBadRequests: the worker refuses a body past
// the size cap with 413 and a malformed body or an unknown field with
// 400, and Dial refuses an address that does not serve the route.
func TestRangeHandlerRejectsBadRequests(t *testing.T) {
	s := NewServer(ServerConfig{MaxProcs: 1})
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"oversized", io.MultiReader(strings.NewReader(`{"db":"`), io.LimitReader(fill('x'), maxBody)), http.StatusRequestEntityTooLarge},
		{"malformed", strings.NewReader(`{"lo":0,"hi":`), http.StatusBadRequest},
		{"unknown field", strings.NewReader(`{"lo":0,"hi":1,"session":"k"}`), http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rangePath, tc.body))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	if pool, err := Dial([]string{ts.Listener.Addr().String()}, PoolConfig{}); err == nil || !strings.Contains(err.Error(), "404") {
		if pool != nil {
			pool.Close()
		}
		t.Errorf("Dial to a server without the route: %v, want a 404 error", err)
	}
}

// TestSessionKeyDistinguishesInstances: one (query, db, max width) maps
// to one cached session, and changing any of the three builds another.
func TestSessionKeyDistinguishesInstances(t *testing.T) {
	s := NewServer(ServerConfig{MaxProcs: 1})
	session := func(query, db string, maxWidth int) *core.Estimator {
		t.Helper()
		est, err := s.session(&core.ShardSpec{Query: query, DB: db, MaxWidth: maxWidth})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	a := session("R(x)", "R(a) : 1/2\n", 0)
	if session("R(x)", "R(a) : 1/2\n", 0) != a {
		t.Error("the same instance built a second session")
	}
	for _, other := range []*core.Estimator{
		session("R(y)", "R(a) : 1/2\n", 0),
		session("R(x)", "R(b) : 1/2\n", 0),
		session("R(x)", "R(a) : 1/2\n", 2),
	} {
		if other == a {
			t.Error("distinct instances share a session")
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

// TestSessionRebuildOnMiss alternates two instances on a 1-slot worker,
// so every call misses and rebuilds its session from the shipped text;
// the results must stay bit-identical.
func TestSessionRebuildOnMiss(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(ServerConfig{Obs: obs.NewScope(nil, reg, nil)})
	s.sessions = lru.New[string, *core.Estimator](1)
	pool, err := Dial([]string{serveWorker(t, s)}, PoolConfig{})
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
	const rounds = 3
	for round := 0; round < rounds; round++ {
		got1, err := core.NewEstimator(q, h, sopts).PQEEstimate(sopts)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := core.NewEstimator(q2, h, sopts).PQEEstimate(sopts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got1) != math.Float64bits(local1) || math.Float64bits(got2) != math.Float64bits(local2) {
			t.Fatalf("round %d: rebuilt sessions broke bit-identity", round)
		}
	}
	// Each fixed-schedule call sends the worker one range, on a session
	// the other instance just evicted.
	if got := reg.Counter("shard_worker_sessions_installed_total").Value(); got != 2*rounds {
		t.Errorf("shard_worker_sessions_installed_total = %d, want %d", got, 2*rounds)
	}
}

// hangWorker is a fake worker that answers Dial's empty-range probe but
// holds every real range until the test ends — the timeout/straggler
// failure mode. Returns its address.
func hangWorker(t *testing.T) string {
	t.Helper()
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req rangeRequest
		if json.NewDecoder(r.Body).Decode(&req) == nil && req.Hi > req.Lo {
			<-release // the coordinator must time out
		}
		json.NewEncoder(w).Encode(rangeResponse{})
	}))
	// Close waits for handlers, so release them first.
	t.Cleanup(func() {
		close(release)
		ts.Close()
	})
	return ts.Listener.Addr().String()
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

// TestConcurrentRangesOnOneWorker: two evaluations sharing a pool run
// their ranges on one worker at the same time. The worker holds each
// range until two are in flight, so ranges that queued behind each
// other would time out its bounded wait.
func TestConcurrentRangesOnOneWorker(t *testing.T) {
	var inflight atomic.Int32
	both := make(chan struct{})
	one := efloat.FromFloat(1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req rangeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Hi > req.Lo {
			if inflight.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
			case <-time.After(10 * time.Second):
				http.Error(w, "ranges ran one after another", http.StatusInternalServerError)
				return
			}
		}
		var resp rangeResponse
		for i := req.Lo; i < req.Hi; i++ {
			m, e := one.Bits()
			resp.Mant, resp.Exp = append(resp.Mant, m), append(resp.Exp, e)
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()
	pool, err := Dial([]string{ts.Listener.Addr().String()}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	spec := core.ShardSpec{Mode: core.ShardModePQE, Epsilon: 0.3, Trials: 3, Samples: 24, Seed: 1}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = pool.CountSharded(nil, spec)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestRequestIDCrossesShardHop: the coordinator's request ID reaches
// the worker, whose range span carries it.
func TestRequestIDCrossesShardHop(t *testing.T) {
	tr := obs.NewTracer()
	s := NewServer(ServerConfig{MaxProcs: 1, Obs: obs.NewScope(tr, nil, nil)})
	pool, err := Dial([]string{serveWorker(t, s)}, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	q, h := testInstance(t)
	opts := core.Options{Epsilon: 0.3, Seed: 7, Shard: pool,
		Obs: obs.NewScope(nil, obs.NewRegistry(), nil).WithRequestID("req-shard-7")}
	if _, err := core.NewEstimator(q, h, opts).PQEEstimate(opts); err != nil {
		t.Fatal(err)
	}
	var ranges int
	for _, root := range tr.Roots() {
		if root.Name() != "count.trees_range" {
			continue
		}
		ranges++
		var id any
		for _, a := range root.Attrs() {
			if a.Key == "request_id" {
				id = a.Value
			}
		}
		if id != "req-shard-7" {
			t.Errorf("worker range span request_id = %v, want req-shard-7", id)
		}
	}
	if ranges == 0 {
		t.Fatal("worker recorded no count.trees_range span")
	}
}
