// Package serve exposes the pqe engines as a long-lived HTTP/JSON
// service. A Server owns named probabilistic databases and a bounded
// LRU of Estimator sessions keyed by (query, database, max_width), so
// repeated estimates of the same query reuse the cached decomposition
// and automata across requests. A session outlives deltas to its
// database: the next read notices the version drift and rebuilds only
// the database-keyed stages, keeping the decomposition. Concurrent
// requests are admitted against a shared scheduler budget
// (sched.Budget): each request holds MaxProcs worker tokens for the
// duration of its counting call, and a request that cannot be admitted
// within the configured queue wait is shed with 429 and a Retry-After
// hint. Per-request deadlines thread a context into the sampling loops,
// so an expired deadline stops work within one trial batch and surfaces
// as 504.
//
// Endpoints:
//
//	POST /v1/estimate          one-shot estimate (JSON in, JSON out)
//	POST /v1/estimate/stream   same request, SSE: per-trial convergence
//	                           events, then a final "result" event
//	POST /v1/delta             fact-level delta with optimistic version
//	                           check (409 on stale base_version)
//	GET  /v1/databases         the served databases and their versions
//	GET  /metrics              pqed_* service metrics + session build
//	                           counters
//	GET  /debug/requests       flight recorder: in-flight and recent
//	                           requests (JSON, or ?format=text)
//	GET  /snapshot.json, /trace.json, /debug/pprof/*  (obs debug)
//
// Observability: every request carries a correlation ID (the client's
// X-Request-Id, or one derived deterministically from the request seed),
// echoed in the response header, stamped on every access-log line and
// recorded in the flight recorder together with the chosen strategy,
// database version, outcome and a per-phase time breakdown
// (queue/build/sample/serialize, exported as pqed_phase_seconds).
//
// Determinism: the service inherits the engines' invariant that a
// seeded estimate is a pure function of (query, database, seed) — the
// same request body returns the bit-identical estimate whether issued
// one-shot or streamed, sequentially or concurrently with itself.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pqe"
	"pqe/internal/lru"
	"pqe/internal/obs"
	"pqe/internal/sched"
)

// Config sizes the server. Zero values pick sane defaults.
type Config struct {
	// Budget is the shared worker-token pool: the sum of admitted
	// requests' MaxProcs never exceeds it. Default 4.
	Budget int
	// MaxSessions bounds the Estimator session LRU. Default 64.
	MaxSessions int
	// QueueWait is how long a request may wait for budget admission
	// before being shed with 429. Default 2s.
	QueueWait time.Duration
	// DefaultTimeout bounds a request that does not set timeout_ms.
	// Default 30s.
	DefaultTimeout time.Duration
	// Logger receives structured access-log and scheduler events. Nil
	// discards them (a no-op handler; instrumentation never nil-checks).
	Logger *slog.Logger
	// FlightRecorderSize bounds the flight recorder's ring of retained
	// completed requests. Default 256.
	FlightRecorderSize int
	// RuntimeInterval is the runtime-health poll period (goroutines, GC,
	// heap, scheduler latency → /metrics). Default 10s; negative
	// disables the collector.
	RuntimeInterval time.Duration
	// Shards, when non-nil, distributes every request's FPRAS counting
	// phases across the pool's worker processes. Results stay
	// bit-identical to local evaluation.
	Shards *pqe.ShardPool
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 4
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(nopLogHandler{})
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 256
	}
	if c.RuntimeInterval == 0 {
		c.RuntimeInterval = 10 * time.Second
	}
	return c
}

// Server is the HTTP service state. Create one with NewServer, mount
// Handler on a listener, and Drain before exit.
type Server struct {
	cfg    Config
	budget *sched.Budget
	reg    *obs.Registry  // pqed_* service metrics
	tel    *pqe.Telemetry // engine-side telemetry (construction stages)
	log    *slog.Logger
	fr     *obs.FlightRecorder
	rc     *obs.RuntimeCollector
	mux    *http.ServeMux

	// Outcome-labeled request accounting, written once per request by
	// track.finish.
	reqTotal  *obs.CounterVec   // pqed_requests_total{route,outcome}
	phaseHist *obs.HistogramVec // pqed_phase_seconds{phase,route,outcome}
	reqSeq    atomic.Uint64     // request-ID derivation index

	mu       sync.Mutex
	dbs      map[string]*dbEntry
	sessions *lru.Cache[sessionKey, *pqe.Estimator]

	inflight sync.WaitGroup
	draining atomic.Bool
}

// dbEntry is one served database. The RWMutex serializes deltas
// (writers) against in-flight estimates (readers): an estimate holds
// the read lock for its whole counting call, so a delta never mutates
// fact storage under a running sampler.
type dbEntry struct {
	name string
	mu   sync.RWMutex
	db   *pqe.Database
}

// NewServer builds a server from cfg with no databases; register them
// with AddDatabase before serving.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		budget:   sched.NewBudget(cfg.Budget),
		reg:      obs.NewRegistry(),
		tel:      pqe.NewTelemetry(),
		log:      cfg.Logger,
		fr:       obs.NewFlightRecorder(cfg.FlightRecorderSize),
		dbs:      make(map[string]*dbEntry),
		sessions: lru.New[sessionKey, *pqe.Estimator](cfg.MaxSessions),
	}
	// Touch every pqed_* family now so the full set appears in /metrics
	// from the first scrape (a counter that never fires still exports 0).
	for _, name := range []string{
		"pqed_requests_shed_total", "pqed_deadlines_total",
		"pqed_session_hits_total", "pqed_session_misses_total", "pqed_session_evictions_total",
		"pqed_deltas_total", "pqed_delta_conflicts_total",
	} {
		s.reg.Counter(name)
	}
	s.reg.Gauge("pqed_inflight")
	s.reg.Gauge("pqed_budget_in_use")
	s.reg.Gauge("pqed_budget_waiting")
	s.reg.Histogram("pqed_queue_wait_seconds")
	s.reg.Histogram("pqed_request_seconds")
	s.reqTotal = s.reg.CounterVec("pqed_requests_total", "route", "outcome")
	s.phaseHist = s.reg.HistogramVec("pqed_phase_seconds", []string{"phase", "route", "outcome"})
	s.reg.SetHelp("pqed_requests_total", "Completed requests by route and HTTP outcome.")
	s.reg.SetHelp("pqed_phase_seconds", "Per-request time by phase (queue, build, sample, serialize).")
	s.reg.SetHelp("pqed_requests_shed_total", "Requests shed with 429 because the worker budget stayed saturated past the queue wait.")
	s.reg.SetHelp("pqed_deadlines_total", "Requests that exceeded their deadline mid-computation (504).")

	// Scheduler admission events feed the budget gauges and the debug
	// log, keyed by the waiting request's correlation ID.
	s.budget.SetObserver(func(ev sched.BudgetEvent) {
		s.reg.Gauge("pqed_budget_in_use").Set(float64(ev.InUse))
		s.reg.Gauge("pqed_budget_waiting").Set(float64(ev.Waiting))
		s.log.LogAttrs(context.Background(), slog.LevelDebug, "budget",
			slog.String("event", ev.Kind),
			slog.String("request_id", ev.Tag),
			slog.Int("tokens", ev.Tokens),
			slog.Int("in_use", ev.InUse),
			slog.Int("capacity", ev.Capacity),
			slog.Int("waiting", ev.Waiting),
			slog.Float64("waited_ms", float64(ev.Waited)/float64(time.Millisecond)),
		)
	})

	if cfg.RuntimeInterval > 0 {
		s.rc = obs.NewRuntimeCollector(s.reg, cfg.RuntimeInterval)
		s.rc.Start()
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /v1/estimate/stream", s.handleEstimateStream)
	s.mux.HandleFunc("POST /v1/delta", s.handleDelta)
	s.mux.HandleFunc("GET /v1/databases", s.handleDatabases)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.Handle("/", s.tel.DebugHandler()) // snapshot.json, trace.json, pprof
	return s
}

// AddDatabase registers db under name with a fresh entry. Sessions are
// keyed by entry, so a replaced database's sessions are never found
// again and age out of the LRU; until then up to MaxSessions of them
// keep the old database and its automata in memory and hold LRU slots.
func (s *Server) AddDatabase(name string, db *pqe.Database) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dbs[name] = &dbEntry{name: name, db: db}
}

// Handler returns the root handler (the API plus the obs debug
// endpoints) for mounting on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting new work (503), stops the runtime-health
// collector, and waits until every in-flight request has finished or
// ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.rc.Stop() // nil-safe; idempotent
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Budget exposes the admission semaphore (tests saturate it directly
// to exercise the shed path deterministically).
func (s *Server) Budget() *sched.Budget { return s.budget }

// Registry exposes the pqed_* metrics registry for tests.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Recorder exposes the flight recorder for tests.
func (s *Server) Recorder() *obs.FlightRecorder { return s.fr }

// estimateRequest is the body of /v1/estimate and /v1/estimate/stream.
type estimateRequest struct {
	Query    string          `json:"query"`
	Database string          `json:"database"`
	Options  estimateOptions `json:"options"`
}

type estimateOptions struct {
	// Mode selects the computation: "probability" (routed; default),
	// "estimate" (FPRAS always) or "ur" (uniform reliability).
	Mode      string  `json:"mode"`
	Epsilon   float64 `json:"epsilon"`
	Trials    int     `json:"trials"`
	Delta     float64 `json:"delta"`
	Seed      int64   `json:"seed"`
	MaxWidth  int     `json:"max_width"`
	MaxProcs  int     `json:"max_procs"`
	Strategy  string  `json:"strategy"`
	TimeoutMS int64   `json:"timeout_ms"`
}

// estimateResponse is the one-shot response body and the streamed
// "result" event payload.
type estimateResponse struct {
	Probability float64 `json:"probability,omitempty"`
	UR          string  `json:"ur,omitempty"` // mode "ur" only
	Exact       bool    `json:"exact"`
	Method      string  `json:"method,omitempty"`
	Reason      string  `json:"reason,omitempty"`
	Trials      int64   `json:"trials"`
	Database    string  `json:"database"`
	Version     uint64  `json:"version"`
	Cache       string  `json:"cache"` // session LRU: "hit" or "miss"
	ElapsedMS   float64 `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Version carries the current database version on 409 responses.
	Version uint64 `json:"version,omitempty"`
}

// maxBodyBytes bounds every request body. A fixed cap, not a knob: the
// largest legitimate bodies (deltas of a few thousand ops) are far
// below it, and it keeps one oversized upload from pinning memory.
const maxBodyBytes = 1 << 20

// Bounds on the untrusted schedule options. Fixed caps, not knobs, in
// the spirit of maxBodyBytes: every legitimate request sits well inside
// them, and they keep one request from asking for an unbounded counting
// schedule (the FPRAS sample count grows as 1/ε², trials and width
// multiply the work).
const (
	maxTrials   = 1000
	minEpsilon  = 0.01
	maxMaxWidth = 16
)

// checkSchedule rejects options outside the bounds: trials in
// [0, maxTrials], ε either 0 (the default) or in [minEpsilon, 1), δ
// either 0 (the default) or in (0, 1), and max_width in
// [0, maxMaxWidth].
func checkSchedule(o estimateOptions) error {
	switch {
	case o.Trials < 0 || o.Trials > maxTrials:
		return fmt.Errorf("trials %d outside [0, %d]", o.Trials, maxTrials)
	case o.Epsilon != 0 && !(o.Epsilon >= minEpsilon && o.Epsilon < 1):
		return fmt.Errorf("epsilon %v: want 0 (default) or a value in [%v, 1)", o.Epsilon, minEpsilon)
	case o.Delta != 0 && !(o.Delta > 0 && o.Delta < 1):
		return fmt.Errorf("delta %v: want 0 (default) or a value in (0, 1)", o.Delta)
	case o.MaxWidth < 0 || o.MaxWidth > maxMaxWidth:
		return fmt.Errorf("max_width %d outside [0, %d]", o.MaxWidth, maxMaxWidth)
	}
	return nil
}

// decodeBody decodes a JSON request body of at most maxBodyBytes into
// v. On failure it returns the response status: 413 for an oversized
// body, 400 for a malformed one. Unknown fields are malformed, so a
// misspelt or unsupported option fails loudly instead of being
// silently ignored.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	default:
		return http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// admit performs the shared request prologue: drain check, body decode,
// query parse, database lookup, budget admission, deadline setup. On
// success it returns a prepared call; the caller must invoke
// call.release() when done. On failure it has already written the
// response — and finished tk with the failure outcome — and returns
// nil.
func (s *Server) admit(tk *track, r *http.Request) *call {
	if s.draining.Load() {
		tk.ensureID(0)
		tk.fail(http.StatusServiceUnavailable, "server is draining")
		return nil
	}
	var req estimateRequest
	if status, err := decodeBody(tk.w, r, &req); err != nil {
		tk.ensureID(0)
		tk.fail(status, "%v", err)
		return nil
	}
	// The correlation ID derives from the request seed once the body is
	// known; earlier failures above fall back to the zero stream.
	tk.ensureID(req.Options.Seed)
	tk.qhash = queryHash(req.Query)
	q, err := pqe.ParseQuery(req.Query)
	if err != nil {
		tk.fail(http.StatusBadRequest, "bad query: %v", err)
		return nil
	}
	if req.Database == "" {
		req.Database = "default"
	}
	tk.db = req.Database
	s.mu.Lock()
	ent := s.dbs[req.Database]
	s.mu.Unlock()
	if ent == nil {
		tk.fail(http.StatusNotFound, "unknown database %q", req.Database)
		return nil
	}
	switch req.Options.Mode {
	case "", "probability", "estimate", "ur":
	default:
		tk.fail(http.StatusBadRequest, "unknown mode %q", req.Options.Mode)
		return nil
	}
	if err := checkSchedule(req.Options); err != nil {
		tk.fail(http.StatusBadRequest, "%v", err)
		return nil
	}

	// Admission: hold MaxProcs tokens of the shared budget for the
	// duration of the counting call, waiting at most QueueWait.
	s.inflight.Add(1)
	s.reg.Gauge("pqed_inflight").Add(1)
	waitCtx, cancelWait := context.WithTimeout(r.Context(), s.cfg.QueueWait)
	t0 := time.Now()
	tokens, err := s.budget.AcquireTagged(waitCtx, req.Options.MaxProcs, tk.id)
	cancelWait()
	wait := time.Since(t0)
	s.reg.Histogram("pqed_queue_wait_seconds").Observe(wait.Seconds())
	tk.phases.Add(obs.PhaseQueue, wait)
	if err != nil {
		s.reg.Gauge("pqed_inflight").Add(-1)
		s.inflight.Done()
		if r.Context().Err() != nil {
			// Client went away while queued; nothing to say to it.
			tk.fail(http.StatusRequestTimeout, "client cancelled while queued")
			return nil
		}
		s.reg.Counter("pqed_requests_shed_total").Inc()
		tk.w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.QueueWait)))
		tk.fail(http.StatusTooManyRequests,
			"budget saturated: %d/%d workers in use, %d queued",
			s.budget.InUse(), s.budget.Capacity(), s.budget.Waiting())
		return nil
	}

	timeout := s.cfg.DefaultTimeout
	if req.Options.TimeoutMS > 0 {
		timeout = time.Duration(req.Options.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return &call{s: s, tk: tk, req: req, q: q, ent: ent, tokens: tokens, ctx: ctx, cancel: cancel, start: t0}
}

func retryAfterSeconds(wait time.Duration) int {
	secs := int(wait / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// call is one admitted estimate request.
type call struct {
	s      *Server
	tk     *track
	req    estimateRequest
	q      *pqe.Query
	ent    *dbEntry
	tokens int
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time
}

func (c *call) release() {
	c.cancel()
	c.s.budget.Release(c.tokens)
	c.s.reg.Gauge("pqed_inflight").Add(-1)
	c.s.reg.Histogram("pqed_request_seconds").Observe(time.Since(c.start).Seconds())
	c.s.inflight.Done()
}

// options builds the per-call pqe.Options: the request knobs, the
// deadline context, and a per-request telemetry whose OnTrial feed
// counts trials (and, when streaming, emits SSE events). The engines
// run on the admitted grant, not the requested max_procs, so the
// admitted calls never use more scheduler workers than the budget
// holds. Attaching telemetry never perturbs seeded results, so one-shot
// and streamed runs of the same request are bit-identical.
func (c *call) options(tel *pqe.Telemetry) *pqe.Options {
	o := c.req.Options
	return &pqe.Options{
		Epsilon:   o.Epsilon,
		Trials:    o.Trials,
		Delta:     o.Delta,
		Seed:      o.Seed,
		MaxWidth:  o.MaxWidth,
		MaxProcs:  c.tokens,
		Strategy:  o.Strategy,
		Ctx:       c.ctx,
		Telemetry: tel,
		RequestID: c.tk.id,
		Shards:    c.s.cfg.Shards,
	}
}

// run executes the admitted request against its session, counting
// trials through a per-request telemetry (onTrial, when non-nil, also
// observes each update — the streaming endpoint's SSE feed). The
// returned response is ready to serialize; a non-nil error carries the
// HTTP status in the int.
func (c *call) run(onTrial func(pqe.TrialUpdate)) (estimateResponse, int, error) {
	s := c.s
	tk := c.tk
	// The read lock spans the version read and the counting call: a
	// delta (writer) can neither mutate fact storage under a running
	// sampler nor bump the version the response reports. Waiting for it
	// (behind an in-flight delta) is queue time.
	lockT0 := time.Now()
	c.ent.mu.RLock()
	tk.phases.Add(obs.PhaseQueue, time.Since(lockT0))
	defer c.ent.mu.RUnlock()
	version := c.ent.db.Version()
	est, hit := s.sessionFor(c.req, c.q, c.ent)
	if hit {
		s.reg.Counter("pqed_session_hits_total").Inc()
	} else {
		s.reg.Counter("pqed_session_misses_total").Inc()
	}
	tk.version = version
	tk.cache = cacheLabel(hit)

	var trials atomic.Int64
	tel := pqe.NewTelemetry()
	tel.OnTrial(func(u pqe.TrialUpdate) {
		trials.Add(1)
		if onTrial != nil {
			onTrial(u)
		}
	})
	opts := c.options(tel)

	// Requests sharing the session run concurrently: the Estimator
	// builds each stage once (a request that arrives mid-build waits for
	// it inside the call, which counts as its build time) and every
	// request then counts on its own seeded trial streams, so concurrent
	// identical requests return bit-identical estimates.
	callT0 := time.Now()
	resp := estimateResponse{Database: c.ent.name, Version: version, Cache: cacheLabel(hit)}
	var err error
	switch c.req.Options.Mode {
	case "ur":
		var ur *big.Float
		ur, err = est.UniformReliability(opts)
		if err == nil {
			resp.UR = ur.Text('g', 17)
			resp.Method = "uniform-reliability"
		}
	case "estimate":
		resp.Probability, err = est.Estimate(opts)
		resp.Method = "fpras (forced)"
	default: // "", "probability"
		var res pqe.Result
		res, err = est.Probability(opts)
		if err == nil {
			resp.Probability = res.Probability
			resp.Exact = res.Exact
			resp.Method = res.Method
			resp.Reason = res.Reason
		}
	}
	callDur := time.Since(callT0)

	// Split the engine call into build (automaton construction, accrued
	// into the per-request telemetry by the engine) and sample
	// (everything else: trials, exact plans, serial scans).
	build := time.Duration(tel.PhaseSeconds()["build"] * float64(time.Second))
	if build > callDur {
		build = callDur
	}
	tk.phases.Add(obs.PhaseBuild, build)
	tk.phases.Add(obs.PhaseSample, callDur-build)
	tk.build = tel.BuildKind()
	tk.method = resp.Method
	tk.reason = resp.Reason
	tk.trials = trials.Load()
	tk.saved = tel.CounterValue("router_trials_saved_total")

	resp.Trials = trials.Load()
	resp.ElapsedMS = float64(time.Since(c.start)) / float64(time.Millisecond)
	if err != nil {
		return resp, errStatus(c, err), err
	}
	return resp, http.StatusOK, nil
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// errStatus maps an estimate error to an HTTP status.
func errStatus(c *call, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		c.s.reg.Counter("pqed_deadlines_total").Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client disconnect; the status is never seen.
		return http.StatusRequestTimeout
	case errors.Is(err, pqe.ErrUnsupported):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	tk := s.track(w, r, "estimate")
	c := s.admit(tk, r)
	if c == nil {
		return
	}
	defer c.release()
	resp, status, err := c.run(nil)
	if err != nil {
		tk.fail(status, "%v", err)
		return
	}
	t0 := time.Now()
	writeJSON(w, status, resp)
	tk.phases.Add(obs.PhaseSerialize, time.Since(t0))
	tk.finish(status)
}

func (s *Server) handleDatabases(w http.ResponseWriter, r *http.Request) {
	tk := s.track(w, r, "databases")
	tk.ensureID(0)
	type dbInfo struct {
		Name    string `json:"name"`
		Version uint64 `json:"version"`
		Facts   int    `json:"facts"`
	}
	// Copy the entries and release s.mu before taking any entry's lock:
	// an estimate holds its entry's read lock while it takes s.mu, so
	// waiting for an entry under s.mu (behind a delta queued on a slow
	// estimate) would stall every admission, or deadlock.
	s.mu.Lock()
	ents := make([]*dbEntry, 0, len(s.dbs))
	for _, ent := range s.dbs {
		ents = append(ents, ent)
	}
	s.mu.Unlock()
	infos := make([]dbInfo, 0, len(ents))
	for _, ent := range ents {
		ent.mu.RLock()
		infos = append(infos, dbInfo{Name: ent.name, Version: ent.db.Version(), Facts: ent.db.Size()})
		ent.mu.RUnlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	t0 := time.Now()
	writeJSON(w, http.StatusOK, map[string]any{"databases": infos})
	tk.phases.Add(obs.PhaseSerialize, time.Since(t0))
	tk.finish(http.StatusOK)
}

// handleMetrics writes the combined exposition: the pqed_* service
// registry (with the go_* runtime gauges) followed by the sessions'
// construction counters (pqe_build_*, pqe_estimator_rebuilds_total).
// The counting engines' and the router's counters (countnfta_*,
// countnfa_*, router_*) land in each request's own telemetry and are
// not exported. Both parts are plain Prometheus text, so concatenation
// is a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.Snapshot().WritePrometheus(w)
	s.tel.WriteMetricsText(w)
}
