// Command pqe evaluates the probability of a Boolean conjunctive query
// over a probabilistic database file.
//
// Usage:
//
//	pqe -query "R(x,y), S(y,z)" -db data.pdb [-eps 0.1] [-delta 0.1] [-seed 1]
//	    [-strategy auto] [-exact] [-maxprocs N] [-debug-addr :8080]
//	    [-trace-json trace.json] [-workers-addr host1:9731,host2:9731]
//	pqe -shard-listen :9731            # run as a shard worker process
//
// The database file has one fact per line: "R(a, b) : 3/4" (fractions
// or exact decimals; omitted probability means 1). By default
// (-strategy auto) the tool routes with the full cost-based router:
// safe queries to an exact safe plan, provably small lineages to exact
// weighted model counting, and the rest of the tractable landscape to
// the combined-complexity FPRAS of van Bremen & Meel (PODS 2023) with
// anytime sequential stopping. -strategy force-<engine> pins one
// algorithm (force-nfta: the tree FPRAS, even for safe queries);
// -exact adds a brute-force check (tiny databases only).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"

	"pqe"
	"pqe/internal/flagcheck"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pqe:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pqe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queryStr    = fs.String("query", "", "conjunctive query, e.g. 'R(x,y), S(y,z)'")
		dbPath      = fs.String("db", "", "probabilistic database file")
		eps         = fs.Float64("eps", 0.1, "FPRAS target relative error ε")
		delta       = fs.Float64("delta", 0, "anytime stopping failure target δ (0 = engine default ≈ 0.1)")
		seed        = fs.Int64("seed", 1, "random seed")
		strategy    = fs.String("strategy", "auto", "routing: auto or force-{safeplan,obdd,lineage,nfta,nfa,montecarlo}")
		exactBF     = fs.Bool("exact", false, "also run the brute-force oracle (|D| ≤ 30)")
		ur          = fs.Bool("ur", false, "compute uniform reliability (subinstance count) instead of probability")
		explain     = fs.Bool("explain", false, "print the evaluation plan instead of evaluating")
		sample      = fs.Int("sample", 0, "also draw N worlds conditioned on the query holding")
		trials      = fs.Int("trials", 5, "independent FPRAS estimates to take the median of")
		maxprocs    = fs.Int("maxprocs", runtime.NumCPU(), "workers of the counting engines' unified scheduler (1 = sequential; same answer either way)")
		workersAddr = fs.String("workers-addr", "", "comma-separated shard worker addresses to distribute FPRAS trials across (bit-identical to a local run)")
		shardListen = fs.String("shard-listen", "", "run as a shard worker: serve trial ranges on this address (e.g. :9731) instead of evaluating")
		debugAddr   = fs.String("debug-addr", "", "serve live telemetry on this address (/metrics, /trace.json, /debug/pprof/)")
		traceJSON   = fs.String("trace-json", "", "write the stage trace, convergence records and metrics to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject out-of-range numerics instead of silently clamping: a
	// mistyped -trials 0 should fail loudly, not quietly run 5 trials.
	if err := flagcheck.Positive("trials", *trials); err != nil {
		return err
	}
	if err := flagcheck.Positive("maxprocs", *maxprocs); err != nil {
		return err
	}

	if *shardListen != "" {
		l, err := net.Listen("tcp", *shardListen)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "shard worker on %s\n", l.Addr())
		var tel *pqe.Telemetry
		if *debugAddr != "" {
			tel = pqe.NewTelemetry()
			bound, err := tel.ServeDebug(*debugAddr)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "debug server on http://%s/\n", bound)
		}
		return pqe.ServeShardWorker(l, *maxprocs, tel)
	}
	if *queryStr == "" || *dbPath == "" {
		fs.Usage()
		return fmt.Errorf("both -query and -db are required")
	}

	var tel *pqe.Telemetry
	if *debugAddr != "" || *traceJSON != "" {
		tel = pqe.NewTelemetry()
	}
	if *debugAddr != "" {
		bound, err := tel.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "debug server on http://%s/\n", bound)
	}
	if *traceJSON != "" {
		defer func() {
			f, err := os.Create(*traceJSON)
			if err != nil {
				fmt.Fprintln(stderr, "pqe: trace-json:", err)
				return
			}
			defer f.Close()
			if err := tel.WriteTraceJSON(f); err != nil {
				fmt.Fprintln(stderr, "pqe: trace-json:", err)
			}
		}()
	}

	q, err := pqe.ParseQuery(*queryStr)
	if err != nil {
		return err
	}
	db, err := pqe.LoadDatabase(*dbPath)
	if err != nil {
		return err
	}

	sjf, bounded, safe, width := pqe.Classify(q)
	fmt.Fprintf(stdout, "query: %s\n", q)
	fmt.Fprintf(stdout, "facts: %d   self-join-free: %v   hypertree width: %d (bounded: %v)   safe: %v\n",
		db.Size(), sjf, width, bounded, safe)

	opts := &pqe.Options{Epsilon: *eps, Delta: *delta, Seed: *seed, Trials: *trials, Strategy: *strategy, MaxProcs: *maxprocs, Telemetry: tel}
	if *workersAddr != "" {
		addrs, err := flagcheck.NonEmptyList("workers-addr", *workersAddr)
		if err != nil {
			return err
		}
		pool, err := pqe.NewShardPool(addrs...)
		if err != nil {
			return err
		}
		defer pool.Close()
		fmt.Fprintf(stderr, "sharding trials across %d workers\n", pool.Workers())
		opts.Shards = pool
	}
	// One session for every mode: the decomposition and the automata are
	// built once and shared by the probability estimate and each
	// sampled world.
	est := pqe.NewEstimator(q, db, opts)

	if *explain {
		plan, err := est.Explain(nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, plan)
		return nil
	}

	if *ur {
		count, err := est.UniformReliability(nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "uniform reliability ≈ %s (FPRAS, ε=%.3g)\n", count.Text('g', 8), *eps)
		return nil
	}

	res, err := est.Probability(nil)
	if err != nil {
		return err
	}
	kind := fmt.Sprintf("approximate, ε=%.3g", *eps)
	if res.Exact {
		kind = "exact"
	}
	fmt.Fprintf(stdout, "Pr(Q) = %.8g   (%s; %s)\n", res.Probability, kind, res.Method)
	if res.Reason != "" {
		fmt.Fprintf(stdout, "route: %s\n", res.Reason)
	}

	if *exactBF {
		bf, err := pqe.BruteForceProbability(q, db)
		if err != nil {
			return err
		}
		f, _ := bf.Float64()
		fmt.Fprintf(stdout, "brute force: %.8g (= %s)\n", f, bf.RatString())
	}

	for i := 0; i < *sample; i++ {
		w, err := est.SampleWorld(&pqe.Options{Epsilon: *eps, Seed: *seed + int64(i), MaxProcs: *maxprocs, Telemetry: tel})
		if err != nil {
			return err
		}
		if w == nil {
			fmt.Fprintln(stdout, "no worlds: Pr(Q) = 0")
			break
		}
		fmt.Fprintf(stdout, "world %d: %v\n", i+1, w.Facts())
	}
	return nil
}
