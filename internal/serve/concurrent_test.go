package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pqe"
	"pqe/internal/obs"
)

// debugRequests fetches the flight recorder's JSON snapshot.
func debugRequests(t *testing.T, base string) obs.RecorderSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RecorderSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// directProbability answers a request body's options with a direct
// library call on a fresh database — the bits the service must match.
func directProbability(t *testing.T, dbSize int, seed int64, eps float64, trials int) float64 {
	t.Helper()
	q, err := pqe.ParseQuery(pathQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pqe.Probability(q, testDB(t, dbSize), &pqe.Options{Strategy: "force-nfta", Epsilon: eps, Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Probability
}

// Two cold requests on one session: whichever enters the session first
// builds every stage, the other finds them cached. The build label
// comes from what each request itself built, so overlapping requests
// never both read "full".
func TestConcurrentColdBuildAttribution(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 4}, 4)
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 2; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := postEstimate(ts.URL, estimateBody(seed, 0.3, 5, "")); err != nil {
				t.Error(err)
			}
		}(seed)
	}
	wg.Wait()
	builds := map[string]int{}
	for _, rec := range debugRequests(t, ts.URL).Completed {
		if rec.Route == "estimate" {
			builds[rec.Build]++
		}
	}
	if builds["full"] != 1 || builds["cached"] != 1 || len(builds) != 2 {
		t.Errorf("build labels %v, want exactly one full and one cached", builds)
	}
}

// Requests sharing a session no longer take turns: a short request
// completes while a long one on the same session is still counting,
// and both answers are the bits a direct library call returns.
func TestSameSessionRequestsOverlap(t *testing.T) {
	const dbSize = 4
	_, ts := newTestServer(t, Config{Budget: 4}, dbSize)
	// Warm the session so the long request is in its sampling phase.
	estimateOK(t, ts.URL, estimateBody(9, 0.5, 1, ""))

	const longEps, longTrials = 0.1, 15
	type answer struct {
		resp estimateResponse
		err  error
	}
	longDone := make(chan answer, 1)
	go func() {
		r, err := postEstimate(ts.URL, estimateBody(1, longEps, longTrials, ""))
		longDone <- answer{r, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(inflightEstimates(t, ts.URL)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long request never showed up in flight")
		}
		time.Sleep(time.Millisecond)
	}

	short := estimateOK(t, ts.URL, estimateBody(2, 0.5, 1, ""))
	if len(inflightEstimates(t, ts.URL)) == 0 {
		t.Fatal("the long request finished before the short one: same-session requests were serialized (or the long schedule is too short)")
	}
	ans := <-longDone
	if ans.err != nil {
		t.Fatal(ans.err)
	}
	long := ans.resp

	if short.Cache != "hit" || long.Cache != "hit" {
		t.Errorf("cache labels short=%q long=%q, want both hits on the warm session", short.Cache, long.Cache)
	}
	if want := directProbability(t, dbSize, 2, 0.5, 1); math.Float64bits(short.Probability) != math.Float64bits(want) {
		t.Errorf("short request %v, direct call %v", short.Probability, want)
	}
	if want := directProbability(t, dbSize, 1, longEps, longTrials); math.Float64bits(long.Probability) != math.Float64bits(want) {
		t.Errorf("long request %v, direct call %v", long.Probability, want)
	}
}

// postEstimate is estimateOK for goroutines other than the test's own:
// it reports failures as an error instead of stopping the test.
func postEstimate(base, body string) (estimateResponse, error) {
	resp, err := http.Post(base+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		return estimateResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return estimateResponse{}, fmt.Errorf("estimate: status %d", resp.StatusCode)
	}
	var r estimateResponse
	err = json.NewDecoder(resp.Body).Decode(&r)
	return r, err
}

func inflightEstimates(t *testing.T, base string) []obs.RequestRecord {
	var out []obs.RequestRecord
	for _, rec := range debugRequests(t, base).Inflight {
		if rec.Route == "estimate" {
			out = append(out, rec)
		}
	}
	return out
}

// Bodies are capped at a fixed 1 MiB: an oversized body is refused with
// 413 on both JSON endpoints, a malformed one keeps its 400.
func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 2}, 4)
	huge := strings.Repeat(" ", maxBodyBytes+1)
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"estimate-oversized", "/v1/estimate", `{"query":"R1(x,y)"` + huge + `}`, http.StatusRequestEntityTooLarge},
		{"delta-oversized", "/v1/delta", `{"database":"default"` + huge + `}`, http.StatusRequestEntityTooLarge},
		{"estimate-malformed", "/v1/estimate", `{"query":`, http.StatusBadRequest},
		{"delta-malformed", "/v1/delta", `{"ops":[`, http.StatusBadRequest},
		{"estimate-at-limit", "/v1/estimate", `{"query":"R1(x,y)","options":{"epsilon":0.5,"trials":1}}` + strings.Repeat(" ", maxBodyBytes-100), http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%.200s), want %d", resp.StatusCode, data, tc.want)
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

// A database listing must not hold the server lock while it waits for a
// database: with a delta queued behind a slow estimate on "default",
// GET /v1/databases waits for that entry, and an estimate on another
// database must still be admitted and answered while the slow one runs.
func TestDatabaseListingDoesNotStallOtherDatabases(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 4}, 4)
	s.AddDatabase("other", testDB(t, 4))
	otherBody := strings.Replace(estimateBody(2, 0.5, 1, ""), `"default"`, `"other"`, 1)
	estimateOK(t, ts.URL, otherBody) // warm, so the timed request is a session hit

	// The slow estimate streams, so the test knows it is counting (and
	// holds its database's read lock) once the first trial event lands.
	counting := make(chan struct{})
	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/estimate/stream", "application/json",
			strings.NewReader(estimateBody(1, 0.04, 15, "")))
		if err != nil {
			close(counting)
			slowDone <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		first := true
		for sc.Scan() {
			if first && sc.Text() == "event: trial" {
				first = false
				close(counting)
			}
		}
		if first {
			close(counting)
		}
		slowDone <- sc.Err()
	}()
	<-counting

	// Queue a delta on "default" behind the slow estimate, then list the
	// databases behind the delta. Each waits on its lock right after it
	// shows up in flight; the short sleeps give it the moment to get
	// there.
	deltaDone := make(chan struct{})
	go func() {
		defer close(deltaDone)
		resp, err := http.Post(ts.URL+"/v1/delta", "application/json", strings.NewReader(
			`{"database":"default","ops":[{"op":"insert","relation":"R1","args":["z1","b0"],"prob":"1/3"}]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitInflight(t, ts.URL, "delta")
	time.Sleep(20 * time.Millisecond)
	listDone := make(chan struct{})
	go func() {
		defer close(listDone)
		resp, err := http.Get(ts.URL + "/v1/databases")
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitInflight(t, ts.URL, "databases")
	time.Sleep(20 * time.Millisecond)

	otherDone := make(chan error, 1)
	go func() {
		_, err := postEstimate(ts.URL, otherBody)
		otherDone <- err
	}()
	select {
	case err := <-otherDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("estimate on another database still blocked after 30s: lock-order deadlock")
	}
	select {
	case err := <-slowDone:
		t.Errorf("the estimate on another database finished only after the slow estimate (err %v): it was stalled behind the database listing", err)
	default:
		if err := <-slowDone; err != nil {
			t.Fatal(err)
		}
	}
	<-deltaDone
	<-listDone
}

// waitInflight waits until a request on route shows up in the flight
// recorder.
func waitInflight(t *testing.T, base, route string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, rec := range debugRequests(t, base).Inflight {
			if rec.Route == route {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s request in flight", route)
		}
		time.Sleep(time.Millisecond)
	}
}
