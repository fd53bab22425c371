package serve

import (
	"math/big"
	"net/http"
	"time"

	"pqe"
	"pqe/internal/obs"
)

// deltaRequest is the body of POST /v1/delta.
type deltaRequest struct {
	Database string `json:"database"`
	// BaseVersion, when present, is an optimistic concurrency check:
	// the delta applies only if the database is still at this version,
	// otherwise the request fails with 409 and the current version.
	BaseVersion *uint64       `json:"base_version"`
	Ops         []deltaOpJSON `json:"ops"`
}

type deltaOpJSON struct {
	Op       string   `json:"op"` // "insert", "delete" or "reweight"
	Relation string   `json:"relation"`
	Args     []string `json:"args"`
	// Prob is a rational ("2/3") or decimal ("0.5") probability;
	// required for insert and reweight, ignored for delete.
	Prob string `json:"prob"`
}

type deltaResponse struct {
	Database  string `json:"database"`
	Version   uint64 `json:"version"`
	Inserts   int    `json:"inserts"`
	Deletes   int    `json:"deletes"`
	Reweights int    `json:"reweights"`
}

// handleDelta applies a fact-level delta under the database write lock:
// it waits for in-flight estimates over this database to finish, checks
// the optimistic version, applies atomically, and retires every cached
// session of the database (their keys embed the old version).
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	tk := s.track(w, r, "delta")
	tk.ensureID(0) // deltas carry no seed; ID from the zero stream
	s.reg.Counter("pqed_deltas_total").Inc()
	if s.draining.Load() {
		tk.fail(http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req deltaRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		tk.fail(status, "%v", err)
		return
	}
	if req.Database == "" {
		req.Database = "default"
	}
	tk.db = req.Database
	if len(req.Ops) == 0 {
		tk.fail(http.StatusBadRequest, "empty delta")
		return
	}
	delta := pqe.NewDelta()
	for i, op := range req.Ops {
		var prob *big.Rat
		if op.Op == "insert" || op.Op == "reweight" {
			if op.Prob == "" {
				tk.fail(http.StatusBadRequest, "op %d: %s needs a prob", i, op.Op)
				return
			}
			prob = new(big.Rat)
			if _, ok := prob.SetString(op.Prob); !ok {
				tk.fail(http.StatusBadRequest, "op %d: bad prob %q", i, op.Prob)
				return
			}
		}
		switch op.Op {
		case "insert":
			delta.Insert(op.Relation, prob, op.Args...)
		case "delete":
			delta.Delete(op.Relation, op.Args...)
		case "reweight":
			delta.Reweight(op.Relation, prob, op.Args...)
		default:
			tk.fail(http.StatusBadRequest, "op %d: unknown op %q", i, op.Op)
			return
		}
	}

	s.mu.Lock()
	ent := s.dbs[req.Database]
	s.mu.Unlock()
	if ent == nil {
		tk.fail(http.StatusNotFound, "unknown database %q", req.Database)
		return
	}

	// Waiting for in-flight estimates (readers) to release the database
	// is this route's queue phase.
	lockT0 := time.Now()
	ent.mu.Lock()
	tk.phases.Add(obs.PhaseQueue, time.Since(lockT0))
	if req.BaseVersion != nil && *req.BaseVersion != ent.db.Version() {
		cur := ent.db.Version()
		ent.mu.Unlock()
		s.reg.Counter("pqed_delta_conflicts_total").Inc()
		tk.version = cur
		tk.errMsg = "stale base_version"
		t0 := time.Now()
		writeJSON(w, http.StatusConflict, errorResponse{
			Error:   "stale base_version",
			Version: cur,
		})
		tk.phases.Add(obs.PhaseSerialize, time.Since(t0))
		tk.finish(http.StatusConflict)
		return
	}
	applyT0 := time.Now()
	sum, err := ent.db.ApplyDelta(delta)
	version := ent.db.Version()
	// Applying the delta rebuilds automaton parts incrementally — the
	// write-side analogue of the build phase.
	tk.phases.Add(obs.PhaseBuild, time.Since(applyT0))
	ent.mu.Unlock()
	tk.version = version
	if err != nil {
		tk.fail(http.StatusBadRequest, "delta rejected: %v", err)
		return
	}
	// Sessions for the pre-delta version can never be hit again (the
	// key embeds the version); drop them now so their automata free.
	s.mu.Lock()
	s.sessions.evictDatabase(req.Database, s.reg)
	s.mu.Unlock()
	t0 := time.Now()
	writeJSON(w, http.StatusOK, deltaResponse{
		Database:  req.Database,
		Version:   version,
		Inserts:   sum.Inserts,
		Deletes:   sum.Deletes,
		Reweights: sum.Reweights,
	})
	tk.phases.Add(obs.PhaseSerialize, time.Since(t0))
	tk.finish(http.StatusOK)
}
