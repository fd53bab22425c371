package main

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pqe"
	"pqe/internal/flagcheck"
)

func writeDB(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.pdb")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSafeQuery(t *testing.T) {
	db := writeDB(t, "R1(h,a) : 1/2\nR2(h,b) : 1/3\n")
	var out, errOut strings.Builder
	err := run([]string{"-query", "R1(x,y1), R2(x,y2)", "-db", db, "-exact"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "safe: true") {
		t.Errorf("missing classification: %s", s)
	}
	if !strings.Contains(s, "exact") {
		t.Errorf("safe query not exact: %s", s)
	}
	if !strings.Contains(s, "1/6") {
		t.Errorf("missing brute-force fraction: %s", s)
	}
}

func TestRunSmallLineageExact(t *testing.T) {
	// A tiny unsafe path query: under the default auto routing the
	// small-lineage rule answers it exactly.
	db := writeDB(t, "R1(a,b) : 1/2\nR2(b,c) : 1/2\nR3(c,d) : 1/2\n")
	var out, errOut strings.Builder
	err := run([]string{"-query", "R1(x1,x2), R2(x2,x3), R3(x3,x4)", "-db", db, "-eps", "0.1", "-seed", "3"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "exact") || !strings.Contains(s, "0.125") {
		t.Errorf("small-lineage query not answered exactly: %s", s)
	}
	if !strings.Contains(s, "route:") {
		t.Errorf("missing routing reason: %s", s)
	}
}

func TestRunFPRASQuery(t *testing.T) {
	db := writeDB(t, "R1(a,b) : 1/2\nR2(b,c) : 1/2\nR3(c,d) : 1/2\n")
	var out, errOut strings.Builder
	err := run([]string{"-query", "R1(x1,x2), R2(x2,x3), R3(x3,x4)", "-db", db,
		"-eps", "0.1", "-seed", "3", "-strategy", "force-nfta"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "approximate") || !strings.Contains(out.String(), "NFTA") {
		t.Errorf("unsafe query not approximated by the tree FPRAS under force-nfta: %s", out.String())
	}
}

func TestRunForcedStrategy(t *testing.T) {
	db := writeDB(t, "R1(a,b) : 1/2\nR2(b,c) : 1/2\nR3(c,d) : 1/2\n")
	var out, errOut strings.Builder
	err := run([]string{"-query", "R1(x1,x2), R2(x2,x3), R3(x3,x4)", "-db", db,
		"-eps", "0.1", "-seed", "3", "-strategy", "force-nfa"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "path NFA") {
		t.Errorf("forced strategy not honored: %s", out.String())
	}
	if err := run([]string{"-query", "R1(x,y)", "-db", db, "-strategy", "force-warp"}, &out, &errOut); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunUniformReliability(t *testing.T) {
	db := writeDB(t, "R1(a,b) : 1/2\nR2(b,c) : 1/2\n")
	var out, errOut strings.Builder
	err := run([]string{"-query", "R1(x1,x2), R2(x2,x3)", "-db", db, "-ur"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "uniform reliability") {
		t.Errorf("missing UR output: %s", out.String())
	}
}

func TestRunMissingFlags(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(nil, &out, &errOut); err == nil {
		t.Error("missing flags accepted")
	}
}

func TestRunBadQuery(t *testing.T) {
	db := writeDB(t, "R(a) : 1/2\n")
	var out, errOut strings.Builder
	if err := run([]string{"-query", "R(", "-db", db}, &out, &errOut); err == nil {
		t.Error("bad query accepted")
	}
}

func TestRunMissingDBFile(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-query", "R(x)", "-db", "/nonexistent/file"}, &out, &errOut); err == nil {
		t.Error("missing database file accepted")
	}
}

func TestRunExplain(t *testing.T) {
	db := writeDB(t, "R1(a,b) : 1/2\nR2(b,c) : 2/3\nR3(c,d) : 1/2\n")
	var out, errOut strings.Builder
	err := run([]string{"-query", "R1(x1,x2), R2(x2,x3), R3(x3,x4)", "-db", db, "-explain",
		"-strategy", "force-nfta"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"route:", "decomposition:", "counted tree size"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explain output missing %q:\n%s", want, out.String())
		}
	}
	// Under the default auto routing this tiny instance explains to the
	// exact small-lineage route instead.
	out.Reset()
	err = run([]string{"-query", "R1(x1,x2), R2(x2,x3), R3(x3,x4)", "-db", db, "-explain"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"obdd", "reason:", "small lineage"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("auto explain missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSampleWorlds(t *testing.T) {
	db := writeDB(t, "R1(a,b) : 1/2\nR2(b,c) : 1/2\n")
	var out, errOut strings.Builder
	err := run([]string{"-query", "R1(x1,x2), R2(x2,x3)", "-db", db, "-sample", "3"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "world 1:") || !strings.Contains(out.String(), "world 3:") {
		t.Errorf("missing sampled worlds:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "R1(a,b)") {
		t.Errorf("world missing forced fact:\n%s", out.String())
	}
}

func TestRunRejectsBadNumericFlags(t *testing.T) {
	db := writeDB(t, "R1(a,b) : 1/2\n")
	base := []string{"-query", "R1(x,y)", "-db", db}
	cases := []struct {
		name string
		args []string
	}{
		{"trials", append([]string{"-trials", "0"}, base...)},
		{"trials", append([]string{"-trials", "-3"}, base...)},
		{"maxprocs", append([]string{"-maxprocs", "0"}, base...)},
		{"maxprocs", append([]string{"-maxprocs", "-1"}, base...)},
	}
	for _, c := range cases {
		var out, errOut strings.Builder
		err := run(c.args, &out, &errOut)
		var fe *flagcheck.Error
		if !errors.As(err, &fe) {
			t.Errorf("%v: run = %v, want *flagcheck.Error", c.args[:2], err)
			continue
		}
		if fe.Flag != c.name {
			t.Errorf("%v: rejected flag %q, want %q", c.args[:2], fe.Flag, c.name)
		}
	}
}

func TestRunRejectsBadWorkersAddr(t *testing.T) {
	db := writeDB(t, "R1(a,b) : 1/2\n")
	var out, errOut strings.Builder
	err := run([]string{"-query", "R1(x,y)", "-db", db, "-workers-addr", "a:1,,b:2"}, &out, &errOut)
	var fe *flagcheck.Error
	if !errors.As(err, &fe) || fe.Flag != "workers-addr" {
		t.Errorf("run = %v, want *flagcheck.Error for -workers-addr", err)
	}
}

// TestRunSharded drives the two-terminal workflow in-process: a shard
// worker via pqe.ServeShardWorker plus a -workers-addr run, and checks
// the printed estimate matches the local run byte for byte.
func TestRunSharded(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go pqe.ServeShardWorker(l, 2, nil)

	db := writeDB(t, "R1(a,b) : 1/2\nR1(a,c) : 1/3\nR2(b,d) : 2/3\nR2(c,d) : 1/2\nR3(d,e) : 3/4\n")
	args := []string{"-query", "R1(x1,x2), R2(x2,x3), R3(x3,x4)", "-db", db,
		"-eps", "0.2", "-seed", "7", "-strategy", "force-nfta"}
	var local, sharded, errOut strings.Builder
	if err := run(args, &local, &errOut); err != nil {
		t.Fatalf("local run: %v", err)
	}
	if err := run(append(args, "-workers-addr", l.Addr().String()), &sharded, &errOut); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if local.String() != sharded.String() {
		t.Errorf("sharded output differs:\nlocal:\n%s\nsharded:\n%s", local.String(), sharded.String())
	}
	if !strings.Contains(local.String(), "Pr(Q)") {
		t.Errorf("missing estimate: %s", local.String())
	}
}
