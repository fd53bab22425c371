package serve

import (
	"container/list"
	"strconv"

	"pqe"
	"pqe/internal/obs"
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
	key string
}

// sessionLRU is a bounded map of sessions with least-recently-used
// eviction. Callers must hold the server mutex (Server.mu) — the LRU
// itself is not synchronized.
type sessionLRU struct {
	max   int
	items map[string]*list.Element // key -> element holding *session
	order *list.List               // front = most recently used
}

func newSessionLRU(max int) *sessionLRU {
	return &sessionLRU{max: max, items: make(map[string]*list.Element), order: list.New()}
}

// sessionKey identifies an estimator session: the query text, the
// database name, the database version (so a delta retires every prior
// session of that database), and the construction-relevant option.
func sessionKey(query, db string, version uint64, maxWidth int) string {
	return query + "\x00" + db + "\x00" + strconv.FormatUint(version, 10) + "\x00" + strconv.Itoa(maxWidth)
}

// get returns the cached session for key and marks it most recently
// used.
func (l *sessionLRU) get(key string) *session {
	if el, ok := l.items[key]; ok {
		l.order.MoveToFront(el)
		return el.Value.(*session)
	}
	return nil
}

// put inserts a session and evicts from the tail past capacity.
func (l *sessionLRU) put(sess *session, reg *obs.Registry) {
	l.items[sess.key] = l.order.PushFront(sess)
	for len(l.items) > l.max {
		tail := l.order.Back()
		if tail == nil {
			break
		}
		evicted := tail.Value.(*session)
		l.order.Remove(tail)
		delete(l.items, evicted.key)
		reg.Counter("pqed_session_evictions_total").Inc()
	}
}

// evictDatabase drops every session over the named database (any
// version) — deltas call this so stale sessions free their automata
// immediately instead of aging out of the LRU.
func (l *sessionLRU) evictDatabase(db string, reg *obs.Registry) {
	for el := l.order.Front(); el != nil; {
		next := el.Next()
		if sess := el.Value.(*session); sess.db == db {
			l.order.Remove(el)
			delete(l.items, sess.key)
			reg.Counter("pqed_session_evictions_total").Inc()
		}
		el = next
	}
}

// len reports the live session count.
func (l *sessionLRU) len() int { return len(l.items) }

// sessionFor returns the session for the request (most-recently-used
// on hit, freshly constructed and inserted on miss). The caller must
// hold the database entry's read lock so the version cannot move
// between key computation and use.
func (s *Server) sessionFor(req estimateRequest, q *pqe.Query, ent *dbEntry, version uint64) (*session, bool) {
	key := sessionKey(req.Query, ent.name, version, req.Options.MaxWidth)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions.get(key); sess != nil {
		return sess, true
	}
	// The constructor's options carry the construction knobs and the
	// server-wide telemetry, so build-stage metrics (pqe_build_*)
	// accumulate in the service /metrics across requests.
	sess := &session{
		est: pqe.NewEstimator(q, ent.db, &pqe.Options{MaxWidth: req.Options.MaxWidth, Telemetry: s.tel}),
		db:  ent.name,
		key: key,
	}
	s.sessions.put(sess, s.reg)
	return sess, false
}

// SessionCount reports the live session-cache size (for tests).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions.len()
}
