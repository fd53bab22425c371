package serve

import (
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
