// Package shard distributes the FPRAS trial schedule across worker
// processes. A coordinator (Pool) runs the schedule through the same
// trial driver the engines use locally (internal/trial): each batch
// the driver asks for — the whole fixed range, or one deterministic
// anytime batch — is cut into contiguous sub-ranges, each posted to a
// worker (Server) over HTTP, and the driver merges the per-trial
// estimates.
//
// Determinism contract: every trial's PRNG streams derive from
// (seed, site, index) — never from the schedule, the partition, or the
// worker that ran it (see internal/splitmix) — and estimates travel as
// exact (mantissa bits, exponent) pairs. The merged estimate is
// therefore byte-for-byte equal to the single-process run at any
// worker count, including after a mid-call range reassignment.
//
// Wire format: one stateless route, POST /v1/shard/range (the version
// lives in the path). The JSON body is a core.ShardSpec — instance
// text, counting mode, resolved schedule — plus the trial range
// [lo, hi); the response carries the range's estimates. A request is
// self-contained: the worker finds its session by the shipped text and
// builds it on a miss, so eviction and restarts need no coordination.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/lru"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

const (
	rangePath = "/v1/shard/range"
	// maxBody bounds a request or response body. Instances ship as
	// text, so the bound is generous; anything larger is refused.
	maxBody = 64 << 20
	// maxSessions caps a worker's estimator sessions, one per distinct
	// (query, db, max width).
	maxSessions = 8
)

// rangeRequest asks a worker for trials [Lo, Hi) of a spec.
type rangeRequest struct {
	core.ShardSpec
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// rangeResponse carries a range's estimates as parallel arrays of
// IEEE-754 mantissa bits and binary exponents (efloat.E.Bits), because
// JSON float text does not round-trip bits.
type rangeResponse struct {
	Mant []uint64 `json:"mant"`
	Exp  []int64  `json:"exp"`
}

// ServerConfig configures one worker process.
type ServerConfig struct {
	// MaxProcs bounds the engines' scheduler width per range request.
	// Default runtime.NumCPU().
	MaxProcs int
	// Obs, when non-nil, receives the worker-local engine telemetry
	// (count.trees_range / count.nfa_range spans, engine counters and
	// convergence records) plus the shard_worker_* counters.
	Obs *obs.Scope
}

// Server is one shard worker, the handler of POST /v1/shard/range: it
// executes trial ranges on cached, plan-cached core.Estimators, so
// repeated ranges of an instance skip construction. An Estimator is
// safe for concurrent use, so concurrent ranges of one session run in
// parallel; only the first on a cold session builds its automaton.
type Server struct {
	cfg  ServerConfig
	http http.Server

	mu       sync.Mutex
	sessions *lru.Cache[string, *core.Estimator]
}

// NewServer returns an unstarted worker; call Serve with a listener.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxProcs <= 0 {
		cfg.MaxProcs = runtime.NumCPU()
	}
	s := &Server{cfg: cfg, sessions: lru.New[string, *core.Estimator](maxSessions)}
	mux := http.NewServeMux()
	mux.Handle("POST "+rangePath, s)
	s.http.Handler = mux
	return s
}

// Serve answers requests on l until Close (nil) or a listener error.
func (s *Server) Serve(l net.Listener) error {
	if err := s.http.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Close closes the listener and every connection. Ranges in flight
// see their request context cancelled and stop sampling.
func (s *Server) Close() { s.http.Close() }

// ServeHTTP executes one trial range. The request context reaches the
// engines, so a range whose coordinator hung up or timed out stops.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req rangeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "shard: decoding range request: "+err.Error(), code)
		return
	}
	var resp rangeResponse
	// An empty range needs no session; Dial probes workers with one.
	if req.Lo != req.Hi {
		est, err := s.session(&req.ShardSpec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		results, err := est.CountTrials(r.Context(), req.ShardSpec, req.Lo, req.Hi, s.cfg.MaxProcs,
			s.cfg.Obs.WithRequestID(r.Header.Get("X-Request-Id")))
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		s.cfg.Obs.Counter("shard_worker_ranges_total").Inc()
		s.cfg.Obs.Counter("shard_worker_trials_total").Add(int64(len(results)))
		resp.Mant, resp.Exp = make([]uint64, len(results)), make([]int64, len(results))
		for i, e := range results {
			resp.Mant[i], resp.Exp[i] = e.Bits()
		}
	}
	_ = json.NewEncoder(w).Encode(resp) // a failed write means the coordinator is gone
}

// session returns the estimator of the spec's instance, keyed by the
// shipped text as pqed's sessions are, and builds it on a miss.
func (s *Server) session(spec *core.ShardSpec) (*core.Estimator, error) {
	key := spec.Query + "\x00" + spec.DB + "\x00" + strconv.Itoa(spec.MaxWidth)
	s.mu.Lock()
	defer s.mu.Unlock()
	if est, ok := s.sessions.Get(key); ok {
		return est, nil
	}
	q, err := cq.Parse(spec.Query)
	if err != nil {
		return nil, fmt.Errorf("shard: session query: %w", err)
	}
	h, err := pdb.ParseString(spec.DB)
	if err != nil {
		return nil, fmt.Errorf("shard: session db: %w", err)
	}
	est := core.NewEstimator(q, h, core.Options{MaxWidth: spec.MaxWidth, Obs: s.cfg.Obs})
	s.sessions.Put(key, est)
	s.cfg.Obs.Counter("shard_worker_sessions_installed_total").Inc()
	return est, nil
}
