package serve

import "pqe"

// sessionKey identifies an estimator session: the query text, the
// served database entry, and the construction-relevant option. The
// database version is not part of it: an Estimator notices version
// drift on its next call and rebuilds only its database-keyed stages,
// so one session outlives every delta. AddDatabase installs a fresh
// entry, so the sessions of a replaced database are never found again
// and age out of the LRU.
type sessionKey struct {
	query    string
	db       *dbEntry
	maxWidth int
}

// sessionFor returns the request's Estimator (most-recently-used on
// hit, freshly constructed and inserted on miss). An Estimator is safe
// for concurrent use, so requests that share a session (differing in
// seed or ε) build each stage once and then count in parallel. A
// session keeps working after eviction — in-flight holders own a direct
// pointer — the LRU only bounds how many are retained for reuse.
func (s *Server) sessionFor(req estimateRequest, q *pqe.Query, ent *dbEntry) (*pqe.Estimator, bool) {
	key := sessionKey{query: req.Query, db: ent, maxWidth: req.Options.MaxWidth}
	s.mu.Lock()
	defer s.mu.Unlock()
	if est, ok := s.sessions.Get(key); ok {
		return est, true
	}
	// The constructor's options carry the construction knobs and the
	// server-wide telemetry, so the build-stage counters (pqe_build_*)
	// accumulate in the service /metrics across requests. Build spans
	// go to the telemetry of the request that ran the build.
	est := pqe.NewEstimator(q, ent.db, &pqe.Options{MaxWidth: req.Options.MaxWidth, Telemetry: s.tel})
	s.reg.Counter("pqed_session_evictions_total").Add(int64(s.sessions.Put(key, est)))
	return est, false
}

// SessionCount reports the live session-cache size (for tests).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions.Len()
}
