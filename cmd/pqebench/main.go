// Command pqebench regenerates the experiment tables of the
// reproduction: the paper's Table 1 landscape plus the derived
// experiments E2–E11 and ablations A1–A2 (see DESIGN.md for the index).
//
// Usage:
//
//	pqebench                  # run the full suite, text tables
//	pqebench -exp E5          # one experiment
//	pqebench -markdown        # GitHub-flavored markdown (EXPERIMENTS.md)
//	pqebench -eps 0.05 -seed 7 -quick
//	pqebench -maxprocs 8      # counting-engine scheduler workers
//	pqebench -json            # benchmark suites -> ./BENCH_{countnfta,countnfa,churn,router,shard}.json
//	pqebench -json -json-dir /tmp   # the same files under /tmp
//	pqebench -compare old.json new.json   # per-row ns/allocs deltas + geomean
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"pqe/internal/experiments"
	"pqe/internal/flagcheck"
	"pqe/internal/obs"
)

func main() {
	maybeShardWorker()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pqebench:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pqebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp          = fs.String("exp", "all", "experiment ID (T1, E2..E11, A1, A2) or 'all'")
		eps          = fs.Float64("eps", 0.1, "FPRAS target relative error ε")
		seed         = fs.Int64("seed", 1, "random seed")
		quick        = fs.Bool("quick", false, "shrink sweeps for a fast pass")
		markdown     = fs.Bool("markdown", false, "emit GitHub-flavored markdown")
		maxprocs     = fs.Int("maxprocs", runtime.NumCPU(), "workers of the counting engines' unified scheduler")
		compare      = fs.Bool("compare", false, "compare two bench JSON files given as positional args: per-row ns_per_op/allocs deltas and a geomean summary")
		maxRegress   = fs.Float64("max-regress", 0, "with -compare, exit non-zero if any row's ns_per_op regresses by more than this fraction and past the baseline's ns_spread (0 disables; 0.25 = 25%)")
		jsonOut      = fs.Bool("json", false, "run the benchmark suites and write BENCH_<suite>.json into -json-dir instead of experiment tables")
		jsonDir      = fs.String("json-dir", ".", "output directory of the -json suites")
		shardWorkers = fs.Int("shard-workers", 2, "base worker-process count of the shard suite (it runs at N and 2N)")
		debugAddr    = fs.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address while the suite runs (CPU profiles carry the engines' pqe_engine/pqe_stage labels)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Out-of-range numerics fail loudly instead of silently clamping.
	if err := flagcheck.Positive("maxprocs", *maxprocs); err != nil {
		return err
	}
	if err := flagcheck.Positive("shard-workers", *shardWorkers); err != nil {
		return err
	}

	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two positional args: old.json new.json")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *maxRegress, stdout)
	}

	if *debugAddr != "" {
		bound, err := obs.Serve(*debugAddr, obs.Handler(nil, nil, nil))
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "debug server on http://%s/\n", bound)
	}

	if *jsonOut {
		return runJSONBench(*jsonDir, benchConfig{eps: *eps, seed: *seed, workers: *maxprocs, shardWorkers: *shardWorkers}, stdout)
	}

	opts := experiments.Opts{Epsilon: *eps, Seed: *seed, Quick: *quick, MaxProcs: *maxprocs}
	var tables []*experiments.Table
	if strings.EqualFold(*exp, "all") {
		tables = experiments.All(opts)
	} else {
		f := experiments.ByID(*exp)
		if f == nil {
			return fmt.Errorf("unknown experiment %q (known: %s, all)",
				*exp, strings.Join(experiments.IDs(), ", "))
		}
		tables = []*experiments.Table{f(opts)}
	}
	for _, t := range tables {
		if *markdown {
			t.Markdown(stdout)
		} else {
			t.Format(stdout)
		}
	}
	return nil
}
