package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// syncBuffer is a bytes.Buffer safe for concurrent writers: during a
// smoke run the server's access log and the smoke script's progress
// lines both write to stderr (an *os.File, itself safe for that, in
// the real binary).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSmokeWorkload runs the full in-process smoke lane: scripted
// one-shot, streamed, burst and delta traffic against a loopback
// listener, then the /metrics scrape with the zero-shed assertion.
// This is exactly what `make serve-smoke` runs in CI.
func TestSmokeWorkload(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.prom")
	var stdout, stderr syncBuffer
	if err := run([]string{"-smoke", "-smoke-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("run -smoke: %v\nstderr:\n%s", err, stderr.String())
	}
	metrics, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"pqed_requests_total", "pqed_inflight", "pqed_queue_wait_seconds",
		"pqed_requests_shed_total", "pqed_session_hits_total",
	} {
		if !bytes.Contains(metrics, []byte(family)) {
			t.Errorf("metrics artifact missing %s", family)
		}
	}
	if !strings.Contains(stderr.String(), "smoke: ok") {
		t.Errorf("smoke did not report ok:\n%s", stderr.String())
	}
}

// TestSmokeToStdout: without -smoke-out the scrape lands on stdout.
func TestSmokeToStdout(t *testing.T) {
	var stdout, stderr syncBuffer
	if err := run([]string{"-smoke"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -smoke: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "pqed_requests_total") {
		t.Error("stdout scrape missing pqed_requests_total")
	}
}

func TestFlagErrors(t *testing.T) {
	var stdout, stderr syncBuffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("run without -db or -smoke should fail")
	}
	if err := run([]string{"-db", "/does/not/exist.pdb", "-smoke"}, &stdout, &stderr); err == nil {
		t.Error("run with a missing database file should fail")
	}
	if err := run([]string{"-bogus-flag"}, &stdout, &stderr); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-smoke", "-log-format", "xml"}, &stdout, &stderr); err == nil {
		t.Error("unknown -log-format should fail")
	}
}

// TestSmokeJSONLogs: with -log-format json the access log on stderr is
// line-delimited JSON whose records carry the correlation ID, route and
// status of every smoke request.
func TestSmokeJSONLogs(t *testing.T) {
	var stdout, stderr syncBuffer
	if err := run([]string{"-smoke", "-log-format", "json", "-flight-recorder-size", "32"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -smoke: %v\nstderr:\n%s", err, stderr.String())
	}
	var access int
	for _, line := range strings.Split(stderr.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // smoke's own progress lines
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSON log line %q: %v", line, err)
		}
		if m["msg"] != "request" {
			continue
		}
		access++
		if m["request_id"] == "" || m["route"] == "" || m["status"] == nil {
			t.Errorf("access line underattributed: %v", m)
		}
	}
	// The scripted workload issues a dozen-plus requests; every one must
	// have produced exactly one access line.
	if access < 12 {
		t.Errorf("only %d JSON access lines for the smoke workload", access)
	}
}

// TestSmokeWithDatabaseFile: -db name=path loads and serves a real
// database file through the same smoke workload's server (the workload
// itself runs against "default", which -db also provides here).
func TestSmokeWithDatabaseFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facts.pdb")
	db := demoDatabase()
	if err := os.WriteFile(path, []byte(db.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr syncBuffer
	if err := run([]string{"-db", path, "-smoke"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -db -smoke: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "serving \"default\"") {
		t.Errorf("database file was not loaded:\n%s", stderr.String())
	}
}
