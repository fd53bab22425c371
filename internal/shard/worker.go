package shard

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/obs"
	"pqe/internal/pdb"
)

// ServerConfig configures one worker process.
type ServerConfig struct {
	// MaxProcs bounds the engines' scheduler width per count request.
	// Default runtime.NumCPU().
	MaxProcs int
	// MaxSessions caps the LRU cache of estimator sessions (one per
	// distinct (query, db, max width)). Default 8. An evicted session
	// is transparently re-installed by the coordinator on next use.
	MaxSessions int
	// Obs, when non-nil, receives the worker-local engine telemetry
	// (count.trees_range / count.nfa_range spans, countnfta_*/countnfa_*
	// counters, per-trial convergence records) plus shard_worker_*
	// request counters.
	Obs *obs.Scope
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxProcs <= 0 {
		c.MaxProcs = runtime.NumCPU()
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	return c
}

// Server is one shard worker: it accepts coordinator connections and
// executes trial ranges on cached estimator sessions. Sessions are
// plan-cached core.Estimators, so repeated ranges of the same instance
// skip construction entirely — the same warm-session economics the
// in-process engines have. core.Estimator is safe for concurrent use,
// so ranges of one session from several coordinator connections run in
// parallel; only the first one on a cold session builds its automaton.
type Server struct {
	cfg ServerConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	sessions map[string]*core.Estimator
	order    []string // LRU order, least recent first
	closed   bool
}

// NewServer returns an unstarted worker; call Serve with a listener.
func NewServer(cfg ServerConfig) *Server {
	return &Server{
		cfg:      cfg.withDefaults(),
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[string]*core.Estimator),
	}
}

// Serve accepts coordinator connections on l until Close (or a listener
// error). Each connection is served by its own goroutine, requests on a
// connection strictly in order.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("shard: server closed")
	}
	s.ln = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops the accept loop and closes every live connection.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		var req request
		if err := readFrame(conn, &req, time.Time{}); err != nil {
			return // peer gone or broken frame; the coordinator redials
		}
		resp := s.handle(&req)
		if err := writeFrame(conn, resp, time.Time{}); err != nil {
			return
		}
	}
}

func (s *Server) handle(req *request) response {
	switch req.Op {
	case "hello":
		if req.Version != ProtocolVersion {
			return response{Err: fmt.Sprintf("shard: protocol version %d, want %d", req.Version, ProtocolVersion)}
		}
		return response{OK: true, Version: ProtocolVersion}
	case "session":
		if err := s.installSession(req); err != nil {
			return response{Err: err.Error()}
		}
		return response{OK: true}
	case "count":
		return s.count(req)
	}
	return response{Err: fmt.Sprintf("shard: unknown op %q", req.Op)}
}

// installSession parses the instance and caches a fresh estimator under
// the request's session key, evicting the least-recently-used session
// beyond the cap.
func (s *Server) installSession(req *request) error {
	q, err := cq.Parse(req.Query)
	if err != nil {
		return fmt.Errorf("shard: session query: %w", err)
	}
	h, err := pdb.ParseString(req.DB)
	if err != nil {
		return fmt.Errorf("shard: session db: %w", err)
	}
	est := core.NewEstimator(q, h, core.Options{MaxWidth: req.MaxWidth, Obs: s.cfg.Obs})
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[req.Session]; ok {
		s.touchLocked(req.Session)
		s.sessions[req.Session] = est
		return nil
	}
	s.sessions[req.Session] = est
	s.order = append(s.order, req.Session)
	for len(s.sessions) > s.cfg.MaxSessions {
		evict := s.order[0]
		s.order = s.order[1:]
		delete(s.sessions, evict)
	}
	s.cfg.Obs.Counter("shard_worker_sessions_installed_total").Inc()
	return nil
}

// touchLocked moves key to the most-recently-used end.
func (s *Server) touchLocked(key string) {
	for i, k := range s.order {
		if k == key {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), key)
			return
		}
	}
}

func (s *Server) count(req *request) response {
	s.mu.Lock()
	est := s.sessions[req.Session]
	if est != nil {
		s.touchLocked(req.Session)
	}
	s.mu.Unlock()
	if est == nil {
		return response{Err: errUnknownSession}
	}
	results, err := est.CountTrials(req.spec(), req.Lo, req.Hi, s.cfg.MaxProcs, s.cfg.Obs)
	if err != nil {
		return response{Err: err.Error()}
	}
	s.cfg.Obs.Counter("shard_worker_ranges_total").Inc()
	s.cfg.Obs.Counter("shard_worker_trials_total").Add(int64(len(results)))
	resp := response{OK: true, Mant: make([]uint64, len(results)), Exp: make([]int64, len(results))}
	for i, e := range results {
		resp.Mant[i], resp.Exp[i] = e.Bits()
	}
	return resp
}
