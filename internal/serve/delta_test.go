package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pqe"
	"pqe/internal/obs"
)

// traceSpans counts every span, children included, that /trace.json
// currently holds.
func traceSpans(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc obs.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var count func([]obs.SpanJSON) int
	count = func(spans []obs.SpanJSON) int {
		n := len(spans)
		for _, s := range spans {
			n += count(s.Children)
		}
		return n
	}
	return count(doc.Spans)
}

// lastBuild returns the build label the flight recorder holds for the
// newest completed estimate.
func lastBuild(t *testing.T, base string) string {
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
	for _, r := range snap.Completed {
		if r.Route == "estimate" {
			return r.Build
		}
	}
	t.Fatal("no completed estimate in the flight recorder")
	return ""
}

// TestSessionOutlivesDeltas: insert, delete and reweight deltas
// interleaved with reads keep one session over the database. Every read
// after a delta is a cache hit bit-identical to a fresh server loaded
// with that version's database text; the first one, on the exact route,
// is labelled a full build. The decomposition is built once, no session
// is evicted, and the service trace does not grow with the deltas.
func TestSessionOutlivesDeltas(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 2, RuntimeInterval: -1}, 4)
	body := estimateBody(7, 0.5, 3, "")
	// The same session (strategy is not part of its key) on the router's
	// exact route, whose drift rebuild runs outside the automaton stages.
	exactBody := strings.Replace(body, "force-nfta", "auto", 1)
	first := estimateOK(t, ts.URL, body)
	if first.Cache != "miss" {
		t.Fatalf("first read cache = %q, want miss", first.Cache)
	}
	spans := traceSpans(t, ts.URL)

	deltas := []string{
		`{"op":"insert","relation":"R1","args":["z1","b0"],"prob":"1/3"}`,
		`{"op":"reweight","relation":"R3","args":["c1","t"],"prob":"1/5"}`,
		`{"op":"delete","relation":"R2","args":["b1","c1"]}`,
		`{"op":"insert","relation":"R2","args":["b1","c1"],"prob":"1/2"}`,
		`{"op":"reweight","relation":"R1","args":["a0","b0"],"prob":"3/5"}`,
		`{"op":"delete","relation":"R1","args":["z1","b0"]}`,
	}
	for i, op := range deltas {
		resp, data := post(t, ts.URL+"/v1/delta", fmt.Sprintf(`{"database":"default","ops":[%s]}`, op))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d: %s", i, resp.StatusCode, data)
		}
		exact := estimateOK(t, ts.URL, exactBody)
		if exact.Cache != "hit" || !exact.Exact {
			t.Errorf("exact read after delta %d: cache = %q, exact = %v; want an exact hit", i, exact.Cache, exact.Exact)
		}
		if b := lastBuild(t, ts.URL); b != "full" {
			t.Errorf("exact read after delta %d: build = %q, want full", i, b)
		}
		got := estimateOK(t, ts.URL, body)
		if got.Cache != "hit" {
			t.Errorf("read after delta %d: cache = %q, want hit", i, got.Cache)
		}

		// A fresh server over the same database text.
		text := s.dbs["default"].db.String()
		db, err := pqe.ParseDatabase(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewServer(Config{Budget: 2, RuntimeInterval: -1})
		fresh.AddDatabase("default", db)
		fts := httptest.NewServer(fresh.Handler())
		want := estimateOK(t, fts.URL, body)
		wantExact := estimateOK(t, fts.URL, exactBody)
		fts.Close()
		if math.Float64bits(got.Probability) != math.Float64bits(want.Probability) {
			t.Errorf("read after delta %d (%s): %v, fresh server %v", i, op, got.Probability, want.Probability)
		}
		if math.Float64bits(exact.Probability) != math.Float64bits(wantExact.Probability) {
			t.Errorf("exact read after delta %d (%s): %v, fresh server %v", i, op, exact.Probability, wantExact.Probability)
		}
	}

	if n := s.SessionCount(); n != 1 {
		t.Errorf("SessionCount = %d, want 1", n)
	}
	if n := s.tel.CounterValue("pqe_build_decompositions_total"); n != 1 {
		t.Errorf("pqe_build_decompositions_total = %d, want 1", n)
	}
	if n := s.tel.CounterValue("pqe_estimator_rebuilds_total"); n != int64(len(deltas)) {
		t.Errorf("pqe_estimator_rebuilds_total = %d, want %d", n, len(deltas))
	}
	if n := s.Registry().Counter("pqed_session_evictions_total").Value(); n != 0 {
		t.Errorf("pqed_session_evictions_total = %d, want 0", n)
	}
	if n := traceSpans(t, ts.URL); n != spans {
		t.Errorf("/trace.json holds %d spans after %d deltas, %d after the first read", n, len(deltas), spans)
	}
}

// TestAddDatabaseRetiresSessions: replacing a database installs a fresh
// entry, so the next read builds a new session over the new database.
func TestAddDatabaseRetiresSessions(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 2, RuntimeInterval: -1}, 4)
	body := estimateBody(7, 0.5, 3, "")
	estimateOK(t, ts.URL, body)
	s.AddDatabase("default", testDB(t, 5))
	got := estimateOK(t, ts.URL, body)
	if got.Cache != "miss" {
		t.Errorf("read after AddDatabase: cache = %q, want miss", got.Cache)
	}

	_, fts := newTestServer(t, Config{Budget: 2, RuntimeInterval: -1}, 5)
	want := estimateOK(t, fts.URL, body)
	if math.Float64bits(got.Probability) != math.Float64bits(want.Probability) {
		t.Errorf("read after AddDatabase: %v, fresh server %v", got.Probability, want.Probability)
	}
	if n := s.SessionCount(); n != 2 {
		t.Errorf("SessionCount = %d, want 2 (the replaced session ages out of the LRU)", n)
	}
}
