package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"pqe/internal/serve"
)

// runSmoke drives a scripted workload through a real loopback listener
// and asserts the service behaved: every request succeeded, one-shot
// and streamed estimates agree bit-for-bit, the delta bumped the
// version, and — at this low offered load — nothing was shed. It then
// scrapes /metrics, checks the pqed_* families are present, and writes
// the scrape to outPath (stdout when empty) for the CI artifact.
func runSmoke(srv *serve.Server, stdout, stderr io.Writer, outPath string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stderr, "smoke: serving on %s\n", base)

	query := "R1(x,y), R2(y,z), R3(z,w)"
	body := func(seed int64) string {
		return fmt.Sprintf(`{"query":%q,"database":"default","options":{"epsilon":0.3,"trials":5,"seed":%d,"max_procs":2,"timeout_ms":30000}}`, query, seed)
	}

	// Phase 1: sequential one-shot estimates (a session miss then hits).
	var oneShot string
	for i := 0; i < 3; i++ {
		resp, err := postJSON(base+"/v1/estimate", body(7))
		if err != nil {
			return fmt.Errorf("estimate %d: %w", i, err)
		}
		p := fmt.Sprint(resp["probability"])
		if oneShot == "" {
			oneShot = p
		} else if p != oneShot {
			return fmt.Errorf("estimate %d: probability %s != first %s (determinism)", i, p, oneShot)
		}
	}
	fmt.Fprintf(stderr, "smoke: one-shot probability %s\n", oneShot)

	// Phase 2: streamed estimate must match the one-shot bit-for-bit.
	streamed, trials, err := streamEstimate(base+"/v1/estimate/stream", body(7))
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if streamed != oneShot {
		return fmt.Errorf("streamed probability %s != one-shot %s", streamed, oneShot)
	}
	fmt.Fprintf(stderr, "smoke: streamed matches (%d trial events)\n", trials)

	// Phase 3: a small concurrent burst, all with the same seed — every
	// response must carry the identical estimate.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := postJSON(base+"/v1/estimate", body(7))
			if err != nil {
				errs <- err
				return
			}
			if p := fmt.Sprint(resp["probability"]); p != oneShot {
				errs <- fmt.Errorf("concurrent estimate %s != %s", p, oneShot)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return fmt.Errorf("burst: %w", err)
	}

	// Phase 4: delta with version check, then re-estimate (new value may
	// differ — the database changed — but must again be deterministic).
	// The session outlives the delta: the first read after it is a hit.
	dbsResp, err := getJSON(base + "/v1/databases")
	if err != nil {
		return fmt.Errorf("databases: %w", err)
	}
	version := currentVersion(dbsResp)
	deltaBody := fmt.Sprintf(`{"database":"default","base_version":%d,"ops":[{"op":"insert","relation":"R1","args":["a9","b0"],"prob":"1/3"}]}`, version)
	if _, err := postJSON(base+"/v1/delta", deltaBody); err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	after1, err := postJSON(base+"/v1/estimate", body(7))
	if err != nil {
		return fmt.Errorf("post-delta estimate: %w", err)
	}
	after2, err := postJSON(base+"/v1/estimate", body(7))
	if err != nil {
		return fmt.Errorf("post-delta estimate: %w", err)
	}
	if fmt.Sprint(after1["probability"]) != fmt.Sprint(after2["probability"]) {
		return fmt.Errorf("post-delta estimates disagree")
	}
	if after1["cache"] != "hit" {
		return fmt.Errorf(`first post-delta estimate: cache %v, want "hit"`, after1["cache"])
	}
	// A stale delta must 409.
	resp, err := http.Post(base+"/v1/delta", "application/json", strings.NewReader(deltaBody))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("stale delta: status %d, want 409", resp.StatusCode)
	}
	fmt.Fprintln(stderr, "smoke: delta + stale-version check ok")

	// Phase 5: scrape and verify metrics — the flat families, the
	// outcome-labeled request counter, the phase histograms, and the
	// runtime-health gauges.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, family := range []string{
		"pqed_requests_total", "pqed_inflight", "pqed_queue_wait_seconds",
		"pqed_request_seconds", "pqed_session_hits_total", "pqed_session_misses_total",
		"pqed_requests_shed_total", "pqed_phase_seconds", "go_goroutines",
		"pqed_session_evictions_total",
	} {
		if !bytes.Contains(metrics, []byte(family)) {
			return fmt.Errorf("/metrics is missing %s", family)
		}
	}
	// Labels render sorted by name, so the successful one-shot estimates
	// appear as this exact series.
	if !bytes.Contains(metrics, []byte(`pqed_requests_total{outcome="200",route="estimate"}`)) {
		return fmt.Errorf(`/metrics is missing the labeled pqed_requests_total{outcome="200",route="estimate"} series`)
	}
	if shed := metricValue(metrics, "pqed_requests_shed_total"); shed != 0 {
		return fmt.Errorf("pqed_requests_shed_total = %g at low load, want 0", shed)
	}
	// The delta evicted no session; the session's next read rebuilt its
	// database-keyed stages instead.
	if ev := metricValue(metrics, "pqed_session_evictions_total"); ev != 0 {
		return fmt.Errorf("pqed_session_evictions_total = %g, want 0", ev)
	}
	if rb := metricValue(metrics, "pqe_estimator_rebuilds_total"); rb < 1 {
		return fmt.Errorf("pqe_estimator_rebuilds_total = %g after a delta, want ≥ 1", rb)
	}

	// Phase 6: the flight recorder attributes every request — each
	// completed record carries a correlation ID and a phase breakdown
	// whose sum stays within the request's wall time (and close to it:
	// the tracked phases cover all the real work).
	if err := checkFlightRecorder(base); err != nil {
		return err
	}
	fmt.Fprintln(stderr, "smoke: flight recorder attribution ok")

	out := io.Writer(stdout)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if _, err := out.Write(metrics); err != nil {
		return err
	}
	// Stop the runtime collector and settle in-flight accounting so
	// repeated in-process smokes (the tests) don't pile up pollers.
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("post-smoke drain: %w", err)
	}
	fmt.Fprintln(stderr, "smoke: ok")
	return nil
}

// checkFlightRecorder scrapes /debug/requests (both renderings) and
// asserts post-hoc attributability: every completed record has an ID,
// a route and an outcome, and on successful estimates the phase sum is
// positive, never exceeds wall time, and leaves only a small
// unattributed gap (max of 25% of wall and 50ms of slack).
func checkFlightRecorder(base string) error {
	snap, err := getJSON(base + "/debug/requests")
	if err != nil {
		return fmt.Errorf("/debug/requests: %w", err)
	}
	completed, _ := snap["completed"].([]any)
	if len(completed) == 0 {
		return fmt.Errorf("/debug/requests: no completed records after the workload")
	}
	var checkedPhases int
	for _, it := range completed {
		rec, _ := it.(map[string]any)
		id, _ := rec["id"].(string)
		route, _ := rec["route"].(string)
		outcome, _ := rec["outcome"].(float64)
		if id == "" || route == "" || outcome == 0 {
			return fmt.Errorf("/debug/requests: unattributable record %v", rec)
		}
		if route != "estimate" || outcome != 200 {
			continue
		}
		wall, _ := rec["wall_seconds"].(float64)
		phases, _ := rec["phases"].(map[string]any)
		var sum float64
		for _, v := range phases {
			sum += v.(float64)
		}
		if sum <= 0 {
			return fmt.Errorf("/debug/requests: record %s has no phase time: %v", id, rec)
		}
		if sum > wall+0.005 {
			return fmt.Errorf("/debug/requests: record %s phase sum %.6fs exceeds wall %.6fs", id, sum, wall)
		}
		slack := 0.25 * wall
		if slack < 0.050 {
			slack = 0.050
		}
		if wall-sum > slack {
			return fmt.Errorf("/debug/requests: record %s leaves %.6fs of %.6fs unattributed (allowed %.6fs)",
				id, wall-sum, wall, slack)
		}
		checkedPhases++
	}
	if checkedPhases == 0 {
		return fmt.Errorf("/debug/requests: no successful estimate records to check")
	}
	// The text rendering serves the same data as a table.
	resp, err := http.Get(base + "/debug/requests?format=text")
	if err != nil {
		return err
	}
	table, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, needle := range []string{"ID", "ROUTE", "CODE", "total_completed"} {
		if !bytes.Contains(table, []byte(needle)) {
			return fmt.Errorf("/debug/requests?format=text missing %q:\n%s", needle, table)
		}
	}
	return nil
}

func postJSON(url, body string) (map[string]any, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return m, nil
}

func getJSON(url string) (map[string]any, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

// streamEstimate consumes an SSE response and returns the final
// result's probability (as its JSON literal) plus the trial-event
// count.
func streamEstimate(url, body string) (probability string, trials int, err error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return "", 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
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
				return "", trials, fmt.Errorf("stream error: %s", data)
			case "result":
				var m map[string]any
				if err := json.Unmarshal([]byte(data), &m); err != nil {
					return "", trials, err
				}
				return fmt.Sprint(m["probability"]), trials, nil
			}
		}
	}
	return "", trials, fmt.Errorf("stream ended without a result event (%v)", sc.Err())
}

// currentVersion digs the "default" database's version out of the
// /v1/databases response.
func currentVersion(resp map[string]any) uint64 {
	list, _ := resp["databases"].([]any)
	for _, it := range list {
		m, _ := it.(map[string]any)
		if m["name"] == "default" {
			v, _ := m["version"].(float64)
			return uint64(v)
		}
	}
	return 0
}

// metricValue extracts a metric's value from a Prometheus text scrape
// (0 when absent).
func metricValue(metrics []byte, name string) float64 {
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
