package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pqe"
)

// testDB builds an unsafe 3-step path instance: n fact triples, so the
// FPRAS workload scales with n (n=4 ≈ 10ms per cold estimate, n=6 ≈
// 200ms, n=8 ≈ 1s+ — see the calibrated epsilons in the tests).
func testDB(t testing.TB, n int) *pqe.Database {
	t.Helper()
	d := pqe.NewDatabase()
	add := func(rel string, p *big.Rat, args ...string) {
		if err := d.AddFact(rel, p, args...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		add("R1", big.NewRat(1, 2), fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%2))
		add("R2", big.NewRat(2, 3), fmt.Sprintf("b%d", i%2), fmt.Sprintf("c%d", i%3))
		add("R3", big.NewRat(3, 4), fmt.Sprintf("c%d", i%3), "t")
	}
	return d
}

const pathQuery = "R1(x,y), R2(y,z), R3(z,w)"

func newTestServer(t testing.TB, cfg Config, dbSize int) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	s.AddDatabase("default", testDB(t, dbSize))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// estimateBody is a request that samples: force-nfta pins the tree
// FPRAS, which the router would skip for these small instances (their
// lineage is small enough for exact WMC).
func estimateBody(seed int64, eps float64, trials int, extra string) string {
	return fmt.Sprintf(`{"query":%q,"database":"default","options":{"strategy":"force-nfta","epsilon":%g,"trials":%d,"seed":%d%s}}`,
		pathQuery, eps, trials, seed, extra)
}

func post(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func estimateOK(t testing.TB, base, body string) estimateResponse {
	t.Helper()
	resp, data := post(t, base+"/v1/estimate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", resp.StatusCode, data)
	}
	var r estimateResponse
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("estimate: %v in %s", err, data)
	}
	return r
}

// streamResult consumes the SSE endpooint and returns the final result
// plus the number of trial events seen.
func streamResult(t testing.TB, base, body string) (estimateResponse, int, error) {
	t.Helper()
	resp, err := http.Post(base+"/v1/estimate/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return estimateResponse{}, 0, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("stream Content-Type = %q, want text/event-stream", ct)
	}
	var trials int
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "trial":
				trials++
			case "error":
				return estimateResponse{}, trials, fmt.Errorf("stream error: %s", data)
			case "result":
				var r estimateResponse
				if err := json.Unmarshal([]byte(data), &r); err != nil {
					t.Fatalf("result event: %v in %s", err, data)
				}
				return r, trials, nil
			}
		}
	}
	return estimateResponse{}, trials, fmt.Errorf("no result event (scan err %v)", sc.Err())
}

// TestOneShotVsStreamBitIdentical: the streamed endpoint's final
// estimate equals the one-shot endpoint's bit for bit at the same
// seed (float64 JSON round-trips exactly, so comparing parsed bits is
// exact).
func TestOneShotVsStreamBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 4}, 4)
	body := estimateBody(7, 0.3, 5, "")
	one := estimateOK(t, ts.URL, body)
	streamed, trials, err := streamResult(t, ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(one.Probability) != math.Float64bits(streamed.Probability) {
		t.Errorf("one-shot %v != streamed %v (bit-identity)", one.Probability, streamed.Probability)
	}
	if trials == 0 {
		t.Error("stream produced no trial events")
	}
	if streamed.Trials != int64(trials) {
		t.Errorf("result reports %d trials, stream emitted %d events", streamed.Trials, trials)
	}
	if one.Method == "" || one.Version == 0 {
		t.Errorf("one-shot response underpopulated: %+v", one)
	}
}

// TestDeadline504: a deadline expiring mid-sampling cancels the work
// within one batch and surfaces as 504; the deadline counter accounts
// for it.
func TestDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 4}, 8)
	// ~1s+ of sampling at ε=0.2 against a 50ms budget.
	body := estimateBody(7, 0.2, 5, `,"timeout_ms":50`)
	t0 := time.Now()
	resp, data := post(t, ts.URL+"/v1/estimate", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	// Cancellation is checked per batch and per sampling dispatch, so
	// the request ends close to its deadline, far below the full cost.
	if el := time.Since(t0); el > 2*time.Second {
		t.Errorf("504 took %v, cancellation should stop sampling promptly", el)
	}
	if n := s.Registry().Counter("pqed_deadlines_total").Value(); n != 1 {
		t.Errorf("pqed_deadlines_total = %d, want 1", n)
	}
}

// TestStaleDelta409: a delta whose base_version no longer matches is
// rejected with 409 and the current version; a fresh base applies.
func TestStaleDelta409(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 4}, 4)
	list, err := http.Get(ts.URL + "/v1/databases")
	if err != nil {
		t.Fatal(err)
	}
	var dbs struct {
		Databases []struct {
			Name    string `json:"name"`
			Version uint64 `json:"version"`
			Facts   int    `json:"facts"`
		} `json:"databases"`
	}
	if err := json.NewDecoder(list.Body).Decode(&dbs); err != nil {
		t.Fatal(err)
	}
	list.Body.Close()
	if len(dbs.Databases) != 1 || dbs.Databases[0].Name != "default" {
		t.Fatalf("databases = %+v", dbs)
	}
	version := dbs.Databases[0].Version

	deltaBody := func(base uint64) string {
		return fmt.Sprintf(`{"database":"default","base_version":%d,"ops":[{"op":"insert","relation":"R1","args":["z1","b0"],"prob":"1/3"}]}`, base)
	}
	resp, data := post(t, ts.URL+"/v1/delta", deltaBody(version))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh delta: status %d: %s", resp.StatusCode, data)
	}
	var dres deltaResponse
	if err := json.Unmarshal(data, &dres); err != nil {
		t.Fatal(err)
	}
	if dres.Version <= version || dres.Inserts != 1 {
		t.Errorf("delta response %+v, want version > %d, 1 insert", dres, version)
	}

	// Same base again: stale now.
	resp, data = post(t, ts.URL+"/v1/delta", deltaBody(version))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale delta: status %d (%s), want 409", resp.StatusCode, data)
	}
	var eres errorResponse
	if err := json.Unmarshal(data, &eres); err != nil {
		t.Fatal(err)
	}
	if eres.Version != dres.Version {
		t.Errorf("409 reports version %d, want current %d", eres.Version, dres.Version)
	}
	if n := s.Registry().Counter("pqed_delta_conflicts_total").Value(); n != 1 {
		t.Errorf("pqed_delta_conflicts_total = %d, want 1", n)
	}

	// Estimates after the applied delta see the new version and are
	// deterministic against it.
	a := estimateOK(t, ts.URL, estimateBody(7, 0.5, 3, ""))
	b := estimateOK(t, ts.URL, estimateBody(7, 0.5, 3, ""))
	if a.Version != dres.Version {
		t.Errorf("estimate ran against version %d, want %d", a.Version, dres.Version)
	}
	if math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
		t.Errorf("post-delta estimates differ: %v vs %v", a.Probability, b.Probability)
	}
}

// TestSessionLRUEviction: the session cache is bounded; evicted
// sessions are rebuilt on re-admission with identical results.
func TestSessionLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 4, MaxSessions: 2}, 4)
	queries := []string{
		pathQuery,
		"R1(x,y), R2(y,z)",
		"R2(x,y), R3(y,z)",
	}
	body := func(q string) string {
		return fmt.Sprintf(`{"query":%q,"database":"default","options":{"epsilon":0.5,"trials":3,"seed":7}}`, q)
	}
	first := estimateOK(t, ts.URL, body(queries[0]))
	if first.Cache != "miss" {
		t.Errorf("first request cache = %q, want miss", first.Cache)
	}
	hit := estimateOK(t, ts.URL, body(queries[0]))
	if hit.Cache != "hit" {
		t.Errorf("repeat request cache = %q, want hit", hit.Cache)
	}
	// Two more distinct queries overflow MaxSessions=2 and evict the
	// oldest (queries[0]).
	estimateOK(t, ts.URL, body(queries[1]))
	estimateOK(t, ts.URL, body(queries[2]))
	if n := s.SessionCount(); n != 2 {
		t.Errorf("SessionCount = %d, want 2", n)
	}
	if n := s.Registry().Counter("pqed_session_evictions_total").Value(); n == 0 {
		t.Error("no evictions recorded")
	}
	// Re-admission: a fresh session, same deterministic estimate.
	again := estimateOK(t, ts.URL, body(queries[0]))
	if again.Cache != "miss" {
		t.Errorf("re-admitted request cache = %q, want miss (was evicted)", again.Cache)
	}
	if math.Float64bits(again.Probability) != math.Float64bits(first.Probability) {
		t.Errorf("re-admitted estimate %v != original %v", again.Probability, first.Probability)
	}
}

// TestShed429: with the budget fully held, a request that cannot be
// admitted within QueueWait is shed with 429, a Retry-After hint and
// the shed counter.
func TestShed429(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 2, QueueWait: 50 * time.Millisecond}, 4)
	// Deterministic saturation: hold every token directly.
	n, err := s.Budget().Acquire(context.Background(), 2)
	if err != nil || n != 2 {
		t.Fatalf("Acquire = (%d, %v)", n, err)
	}
	defer s.Budget().Release(n)

	resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(7, 0.5, 3, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.Registry().Counter("pqed_requests_shed_total").Value(); got != 1 {
		t.Errorf("pqed_requests_shed_total = %d, want 1", got)
	}
	// After the tokens free up the same request succeeds.
	s.Budget().Release(n)
	defer func() { // re-acquire so the deferred Release stays balanced
		m, err := s.Budget().Acquire(context.Background(), 2)
		if err != nil || m != 2 {
			t.Fatalf("re-acquire = (%d, %v)", m, err)
		}
	}()
	if r := estimateOK(t, ts.URL, estimateBody(7, 0.5, 3, "")); r.Probability == 0 {
		t.Error("post-shed request returned probability 0")
	}
}

// TestMaxProcsClampedToGrant: a request asking for more scheduler
// workers than the budget holds is admitted with the clamped grant,
// and its engines run on that grant, not on the requested max_procs —
// so the admitted calls never run more workers than Config.Budget. The
// answer is the same as a one-worker request's.
func TestMaxProcsClampedToGrant(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 2}, 4)
	body := estimateBody(5, 0.5, 3, `,"max_procs":16`)
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body))
	c := s.admit(s.track(httptest.NewRecorder(), req, "estimate"), req)
	if c == nil {
		t.Fatal("request not admitted")
	}
	if c.tokens != 2 {
		t.Errorf("granted %d tokens, want the budget's 2", c.tokens)
	}
	if got := c.options(nil).MaxProcs; got > c.tokens {
		t.Errorf("engines run %d scheduler workers on a %d-token grant", got, c.tokens)
	}
	c.release()

	wide := estimateOK(t, ts.URL, body)
	narrow := estimateOK(t, ts.URL, estimateBody(5, 0.5, 3, `,"max_procs":1`))
	if wide.Exact || wide.Trials == 0 {
		t.Fatalf("forced FPRAS answered %+v, want sampled trials", wide)
	}
	if math.Float64bits(wide.Probability) != math.Float64bits(narrow.Probability) {
		t.Errorf("max_procs 16 gave %v, max_procs 1 gave %v", wide.Probability, narrow.Probability)
	}
}

// TestGracefulDrain: Drain lets the in-flight request finish (its
// response arrives complete and correct) while new requests get 503.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 4}, 6)
	// Warm the session so the in-flight request below spends its time
	// sampling, not constructing.
	warm := estimateOK(t, ts.URL, estimateBody(7, 0.3, 5, ""))

	inflight := make(chan estimateResponse, 1)
	inflightErr := make(chan error, 1)
	go func() {
		resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(7, 0.3, 5, ""))
		if resp.StatusCode != http.StatusOK {
			inflightErr <- fmt.Errorf("in-flight status %d: %s", resp.StatusCode, data)
			return
		}
		var r estimateResponse
		if err := json.Unmarshal(data, &r); err != nil {
			inflightErr <- err
			return
		}
		inflight <- r
	}()
	// Wait until the request is admitted, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.Registry().Gauge("pqed_inflight").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// New work is rejected while draining.
	var rejected bool
	for i := 0; i < 100; i++ {
		resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody(7, 0.5, 3, ""))
		if resp.StatusCode == http.StatusServiceUnavailable {
			rejected = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !rejected {
		t.Error("draining server kept admitting requests")
	}
	select {
	case err := <-inflightErr:
		t.Fatal(err)
	case r := <-inflight:
		if math.Float64bits(r.Probability) != math.Float64bits(warm.Probability) {
			t.Errorf("in-flight finished with %v, want %v", r.Probability, warm.Probability)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request did not finish")
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestBadRequests: malformed inputs map to the right statuses.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 2}, 4)
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"bad-json", "/v1/estimate", "{", http.StatusBadRequest},
		{"bad-query", "/v1/estimate", `{"query":"R(x,"}`, http.StatusBadRequest},
		{"unknown-db", "/v1/estimate", `{"query":"R1(x,y)","database":"nope"}`, http.StatusNotFound},
		{"bad-mode", "/v1/estimate", `{"query":"R1(x,y)","options":{"mode":"wat"}}`, http.StatusBadRequest},
		{"unknown-option", "/v1/estimate", `{"query":"R1(x,y)","options":{"force_fpras":true}}`, http.StatusBadRequest},
		{"unknown-delta-field", "/v1/delta", `{"database":"default","ops":[{"op":"delete","relation":"R1","args":["a0","b0"],"weight":"1/2"}]}`, http.StatusBadRequest},
		{"self-join", "/v1/estimate", `{"query":"R1(x,y), R1(y,z)","options":{"epsilon":0.5,"trials":3,"mode":"estimate"}}`, http.StatusUnprocessableEntity},
		{"empty-delta", "/v1/delta", `{"database":"default","ops":[]}`, http.StatusBadRequest},
		{"bad-op", "/v1/delta", `{"database":"default","ops":[{"op":"zap","relation":"R1"}]}`, http.StatusBadRequest},
		{"delta-unknown-db", "/v1/delta", `{"database":"nope","ops":[{"op":"delete","relation":"R1","args":["a0","b0"]}]}`, http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d (%s), want %d", resp.StatusCode, data, tc.want)
			}
		})
	}
}

// TestScheduleBounds: trials, epsilon, delta and max_width outside
// their fixed bounds get a typed 400; the edge values inside them are
// served. The accepted cases use a single-atom query, which the router
// answers by the exact safe plan, so the extreme schedules cost nothing.
func TestScheduleBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 2}, 4)
	body := func(opts string) string {
		return `{"query":"R1(x,y)","options":{"strategy":"auto",` + opts + `}}`
	}
	for _, tc := range []struct {
		name, opts string
		want       int
	}{
		{"defaults", `"seed":1`, http.StatusOK},
		{"edges-high", `"trials":1000,"epsilon":0.999,"delta":0.999,"max_width":16`, http.StatusOK},
		{"edges-low", `"trials":0,"epsilon":0.01,"delta":1e-9,"max_width":0`, http.StatusOK},
		{"trials-over", `"trials":1001`, http.StatusBadRequest},
		{"trials-negative", `"trials":-1`, http.StatusBadRequest},
		{"epsilon-one", `"epsilon":1`, http.StatusBadRequest},
		{"epsilon-below", `"epsilon":0.009`, http.StatusBadRequest},
		{"epsilon-negative", `"epsilon":-0.1`, http.StatusBadRequest},
		{"delta-one", `"delta":1`, http.StatusBadRequest},
		{"delta-negative", `"delta":-0.5`, http.StatusBadRequest},
		{"max-width-over", `"max_width":17`, http.StatusBadRequest},
		{"max-width-negative", `"max_width":-1`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/v1/estimate", body(tc.opts))
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, data, tc.want)
			}
			if tc.want == http.StatusOK {
				return
			}
			var e errorResponse
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not a typed error response (%v)", data, err)
			}
		})
	}
}

// TestMetricsEndpoint: the combined exposition carries both the
// service's pqed_* families and the engines' families.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 2}, 4)
	estimateOK(t, ts.URL, estimateBody(7, 0.5, 3, ""))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, family := range []string{
		"pqed_requests_total", "pqed_inflight", "pqed_queue_wait_seconds",
		"pqed_request_seconds", "pqed_requests_shed_total",
		"pqed_session_hits_total", "pqed_session_misses_total",
		"pqe_build_decompositions_total", // engine side, via session telemetry
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	// Debug endpoints ride on the same listener.
	for _, path := range []string{"/snapshot.json", "/trace.json"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, r.StatusCode)
		}
	}
}
