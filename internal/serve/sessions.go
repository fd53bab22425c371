package serve

import (
	"strconv"

	"pqe"
)

// session is one cached Estimator. It takes no lock of its own: an
// Estimator is safe for concurrent use, so requests that share a
// session (same query, database and version, differing in seed or ε)
// build each stage once and then count in parallel. A session keeps
// working after eviction — in-flight holders own a direct pointer —
// the LRU only bounds how many are retained for reuse.
type session struct {
	est *pqe.Estimator
	db  string // database name, for bulk eviction on delta
}

// sessionKey identifies an estimator session: the query text, the
// database name, the database version (so a delta retires every prior
// session of that database), and the construction-relevant option.
func sessionKey(query, db string, version uint64, maxWidth int) string {
	return query + "\x00" + db + "\x00" + strconv.FormatUint(version, 10) + "\x00" + strconv.Itoa(maxWidth)
}

// sessionFor returns the session for the request (most-recently-used
// on hit, freshly constructed and inserted on miss). The caller must
// hold the database entry's read lock so the version cannot move
// between key computation and use.
func (s *Server) sessionFor(req estimateRequest, q *pqe.Query, ent *dbEntry, version uint64) (*session, bool) {
	key := sessionKey(req.Query, ent.name, version, req.Options.MaxWidth)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions.Get(key); ok {
		return sess, true
	}
	// The constructor's options carry the construction knobs and the
	// server-wide telemetry, so build-stage metrics (pqe_build_*)
	// accumulate in the service /metrics across requests.
	sess := &session{
		est: pqe.NewEstimator(q, ent.db, &pqe.Options{MaxWidth: req.Options.MaxWidth, Telemetry: s.tel}),
		db:  ent.name,
	}
	s.reg.Counter("pqed_session_evictions_total").Add(int64(s.sessions.Put(key, sess)))
	return sess, false
}

// SessionCount reports the live session-cache size (for tests).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions.Len()
}

// evictDatabase drops every session over the named database (any
// version) — deltas call this so stale sessions free their automata
// immediately instead of aging out of the LRU. Caller holds s.mu.
func (s *Server) evictDatabase(db string) {
	n := s.sessions.RemoveIf(func(_ string, sess *session) bool { return sess.db == db })
	s.reg.Counter("pqed_session_evictions_total").Add(int64(n))
}
