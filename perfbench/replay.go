package main

import (
	"fmt"
	"math"
	"math/big"
	"time"

	"pqe/internal/core"
	"pqe/internal/count"
	"pqe/internal/cq"
	"pqe/internal/efloat"
	"pqe/internal/hypertree"
	"pqe/internal/lineage"
	"pqe/internal/nfa"
	"pqe/internal/obdd"
	"pqe/internal/obs"
	"pqe/internal/pdb"
	"pqe/internal/reduction"
	"pqe/internal/router"
	"pqe/internal/safeplan"
	"pqe/internal/shard"
)

// The traced replay re-executes the requests a run sent by calling each
// layer's public function in the order core.Estimator calls them, and
// records a span around every call. No tracing runs inside the program:
// the spans live in this file.

// span is one timed layer call. parent is the index of the enclosing
// span (-1 for a request root); req is the replayed request's index.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int
}

// tracer keeps spans in memory. A tracer that is off records nothing,
// which is how the untraced pass measures the replay without them.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].end = time.Since(t.t0)
	}
}

// Constants mirrored from internal/core's routing arm.
const (
	forcedLineageLimit = 1 << 20
	maxOBDDNodes       = 1 << 17
)

// rsess is the replay's counterpart of a pqed session: the artifacts
// core.Estimator memoizes for one (query, database, version).
type rsess struct {
	key   string
	db    string
	q     *cq.Query
	hdec  *hypertree.Decomposition
	dec   router.Decision
	proj  *pdb.Database
	projH *pdb.Probabilistic
	path  *reduction.PathPQEReduction
	tree  *reduction.PQEReduction
}

// shardRef is a sharded count kept for the local reference pass.
type shardRef struct {
	sharded time.Duration
	path    *reduction.PathPQEReduction
	tree    *reduction.PQEReduction
	t       template
	seed    int64
}

// replayer holds one pass's state: database replicas, a session LRU
// sized like pqed's, and the engines' metrics registry.
type replayer struct {
	w    *workload
	tr   *tracer
	dbs  map[string]*pdb.Probabilistic
	lru  []*rsess // least recently used first
	reg  *obs.Registry
	sc   *obs.Scope
	pool *shard.Pool
	vers versions
	// pending holds, per read database, the applied deltas not yet
	// replayed; reads catch up to the version they observed.
	pending map[string][]*record
	// Per-pass observations.
	routes     map[string]int
	mismatches []string
	clauses    []int
	nodes      []int
	states     []int
	refs       []shardRef
	wall       time.Duration
}

func newReplayer(e *env, recs []*record, vers versions, on bool, pool *shard.Pool) *replayer {
	r := &replayer{
		w: e.w, tr: &tracer{on: on}, dbs: map[string]*pdb.Probabilistic{}, reg: obs.NewRegistry(),
		pool: pool, vers: vers, pending: map[string][]*record{}, routes: map[string]int{},
	}
	r.sc = obs.NewScope(nil, r.reg, nil)
	for _, spec := range e.dbs {
		h, err := pdb.ParseString(pdb.FormatString(spec.h))
		if err != nil {
			panic(err) // generated content
		}
		r.dbs[spec.name] = h
		if _, read := vers[spec.name]; read {
			r.pending[spec.name] = appliedDeltas(recs, spec.name)
		}
	}
	return r
}

// warm builds every template's session the way pqed's warm-up request
// does, untraced: construction plus one cheap counting call.
func (r *replayer) warm() error {
	on := r.tr.on
	r.tr.on = false
	defer func() { r.tr.on = on }()
	for i := len(r.w.templates) - 1; i >= 0; i-- {
		t := r.w.templates[i]
		t.epsilon, t.trials = 0.5, 1
		if _, _, err := r.estimate(t, 1, -1, -1); err != nil {
			return fmt.Errorf("replay warm-up %s: %w", t.name, err)
		}
	}
	// Warm-up work is not part of the pass.
	r.refs, r.clauses, r.nodes, r.states = nil, nil, nil, nil
	r.reg = obs.NewRegistry()
	r.sc = obs.NewScope(nil, r.reg, nil)
	return nil
}

// run replays recs in send order until budget is spent (or exactly
// limit requests when limit > 0) and returns how many it replayed.
// Deltas on a read database replay just before the first read that
// observed them, so every read sees the version it was served at.
func (r *replayer) run(recs []*record, budget time.Duration, limit int) (int, error) {
	r.tr.t0 = time.Now()
	start := time.Now()
	n := 0
	for i, rec := range recs {
		if limit > 0 && n >= limit || limit <= 0 && time.Since(start) >= budget {
			break
		}
		if rec.req.delta {
			if _, lazy := r.pending[rec.req.db]; lazy {
				continue
			}
			if err := r.applyDelta(rec, i); err != nil {
				return n, err
			}
			n++
			continue
		}
		t := r.w.templates[rec.req.tmpl]
		want := r.vers[t.db][rec.est.Version]
		for r.appliedCount(t.db) < want {
			d := r.pending[t.db][0]
			if err := r.applyDelta(d, indexOf(recs, d)); err != nil {
				return n, err
			}
			n++
		}
		root := r.tr.begin("request", -1, i)
		p, route, err := r.estimate(t, rec.req.seed, root, i)
		r.tr.end(root)
		if err != nil {
			return n, fmt.Errorf("replay %s: %w", t.name, err)
		}
		r.routes[route]++
		if math.Float64bits(p) != math.Float64bits(rec.est.Probability) {
			r.mismatches = append(r.mismatches, fmt.Sprintf("%s seed %d: replay %v, served %v", t.name, rec.req.seed, p, rec.est.Probability))
		}
		n++
	}
	r.wall = time.Since(start)
	return n, nil
}

func indexOf(recs []*record, rec *record) int {
	for i, r := range recs {
		if r == rec {
			return i
		}
	}
	return -1
}

// appliedCount is how many of a read database's deltas the replica has
// absorbed.
func (r *replayer) appliedCount(db string) int {
	total := 0
	for _, m := range r.vers[db] {
		if m > total {
			total = m
		}
	}
	return total - len(r.pending[db])
}

// applyDelta replays one write request: the pdb delta, then eviction of
// the database's sessions, as pqed's delta handler does.
func (r *replayer) applyDelta(rec *record, idx int) error {
	if q := r.pending[rec.req.db]; len(q) > 0 && q[0] == rec {
		r.pending[rec.req.db] = q[1:]
	}
	d := toPDBDelta(rec.req.ops)
	root := r.tr.begin("request", -1, idx)
	sp := r.tr.begin("pdb.apply_delta", root, idx)
	_, err := r.dbs[rec.req.db].ApplyDelta(d)
	r.tr.end(sp)
	r.tr.end(root)
	if err != nil {
		return fmt.Errorf("replay delta on %s: %w", rec.req.db, err)
	}
	kept := r.lru[:0]
	for _, s := range r.lru {
		if s.db != rec.req.db {
			kept = append(kept, s)
		}
	}
	r.lru = kept
	return nil
}

// session returns the LRU entry for t, building the classification and
// routing decision on a miss (hypertree.decompose, router.decide).
func (r *replayer) session(t template, root, req int) (*rsess, error) {
	key := t.query + "\x00" + t.db
	for i, s := range r.lru {
		if s.key == key {
			r.lru = append(append(r.lru[:i:i], r.lru[i+1:]...), s)
			return s, nil
		}
	}
	q, err := cq.Parse(t.query)
	if err != nil {
		return nil, err
	}
	h := r.dbs[t.db]
	s := &rsess{key: key, db: t.db, q: q}
	sp := r.tr.begin("hypertree.decompose", root, req)
	dec, derr := hypertree.Decompose(q)
	r.tr.end(sp)
	sp = r.tr.begin("router.decide", root, req)
	class := router.Class{SelfJoinFree: q.SelfJoinFree(), Safe: safeplan.IsSafe(q), Path: q.IsPath()}
	if derr == nil && dec.Width() <= q.Len() {
		class.Width, class.BoundedHW = dec.Width(), true
		s.hdec = dec
	}
	s.proj = h.DB().Project(q.RelationSet())
	s.dec = router.Decide(q, s.proj, class, router.Config{})
	r.tr.end(sp)
	r.lru = append(r.lru, s)
	if len(r.lru) > sessionLRU {
		r.lru = r.lru[1:]
	}
	return s, nil
}

// estimate evaluates one request through the layers and returns the
// probability and the route taken.
func (r *replayer) estimate(t template, seed int64, root, req int) (float64, string, error) {
	s, err := r.session(t, root, req)
	if err != nil {
		return 0, "", err
	}
	h := r.dbs[t.db]
	route := string(s.dec.Strategy)
	switch s.dec.Strategy {
	case router.SafePlan:
		sp := r.tr.begin("safeplan.eval", root, req)
		p, err := safeplan.Evaluate(s.q, h)
		r.tr.end(sp)
		if err != nil {
			return 0, route, err
		}
		f, _ := p.Float64()
		return f, route, nil
	case router.OBDD:
		if s.projH == nil {
			s.projH = h.Project(s.q.RelationSet())
		}
		limit := forcedLineageLimit
		if s.dec.WitnessBound > 0 {
			limit = int(s.dec.WitnessBound)
		}
		sp := r.tr.begin("lineage.compute", root, req)
		f, err := lineage.Compute(s.q, s.proj, limit)
		r.tr.end(sp)
		if err != nil {
			return 0, route, err
		}
		r.clauses = append(r.clauses, f.NumClauses())
		sp = r.tr.begin("obdd.compile", root, req)
		o, oerr := obdd.CompileDNF(f, maxOBDDNodes)
		r.tr.end(sp)
		sp = r.tr.begin("obdd.wmc", root, req)
		var p *big.Rat
		if oerr == nil {
			r.nodes = append(r.nodes, o.Size())
			p = o.WMC(s.projH)
		} else {
			p = f.WMCExact(s.projH)
		}
		r.tr.end(sp)
		v, _ := p.Float64()
		return v, route, nil
	case router.PathNFA:
		if s.path == nil {
			if s.projH == nil {
				s.projH = h.Project(s.q.RelationSet())
			}
			sp := r.tr.begin("reduction.build", root, req)
			pb, err := reduction.NewPathBuilder(s.q, s.proj)
			var m *nfa.NFA
			if err == nil {
				m, err = pb.Build()
			}
			r.tr.end(sp)
			if err != nil {
				return 0, route, err
			}
			sp = r.tr.begin("trim", root, req)
			base := m.Trim()
			r.tr.end(sp)
			sp = r.tr.begin("reduction.weight", root, req)
			s.path, err = reduction.WeightPathNFA(s.q, s.projH, base)
			r.tr.end(sp)
			if err != nil {
				return 0, route, err
			}
			r.states = append(r.states, s.path.Auto.NumStates())
		}
		opts := nfa.CountOptions{Epsilon: t.epsilon, Trials: t.trials, Seed: seed, Anytime: true, MaxProcs: 1, Obs: r.sc}
		var c efloat.E
		if r.pool != nil {
			eps, trials, samples := opts.ResolveSchedule()
			spec := core.ShardSpec{Query: s.q.String(), Mode: core.ShardModePathPQE, N: s.path.WordSize,
				States: s.path.Auto.NumStates(), Epsilon: eps, Trials: trials, Samples: samples, Seed: seed, Anytime: true}
			c, err = r.sharded(spec, h, root, req, shardRef{path: s.path, t: t, seed: seed})
			if err != nil {
				return 0, route, err
			}
		} else {
			sp := r.tr.begin("nfa.sample", root, req)
			c = nfa.Count(s.path.Auto, s.path.WordSize, opts)
			r.tr.end(sp)
		}
		return c.Ratio(efloat.FromBigInt(s.path.DenProduct)), route, nil
	case router.NFTA:
		if s.hdec == nil {
			return 0, route, fmt.Errorf("no bounded-width decomposition for %q", t.query)
		}
		if s.tree == nil {
			if s.projH == nil {
				s.projH = h.Project(s.q.RelationSet())
			}
			sp := r.tr.begin("reduction.build", root, req)
			ub, err := reduction.NewURBuilder(s.q, s.proj, s.hdec)
			var ur *reduction.URReduction
			if err == nil {
				ur, err = ub.Build(nil)
			}
			r.tr.end(sp)
			if err != nil {
				return 0, route, err
			}
			sp = r.tr.begin("reduction.weight", root, req)
			s.tree, err = reduction.WeightUR(ur, s.projH)
			r.tr.end(sp)
			if err != nil {
				return 0, route, err
			}
			r.states = append(r.states, s.tree.Auto.NumStates())
		}
		opts := count.Options{Epsilon: t.epsilon, Trials: t.trials, Seed: seed, Anytime: true, MaxProcs: 1, Obs: r.sc}
		var c efloat.E
		if r.pool != nil {
			eps, trials, samples := opts.ResolveSchedule()
			spec := core.ShardSpec{Query: s.q.String(), Mode: core.ShardModePQE, N: s.tree.TreeSize,
				States: s.tree.Auto.NumStates(), Epsilon: eps, Trials: trials, Samples: samples, Seed: seed, Anytime: true}
			c, err = r.sharded(spec, h, root, req, shardRef{tree: s.tree, t: t, seed: seed})
			if err != nil {
				return 0, route, err
			}
		} else {
			sp := r.tr.begin("count.sample", root, req)
			c = count.Trees(s.tree.Auto, s.tree.TreeSize, opts)
			r.tr.end(sp)
		}
		return c.Ratio(efloat.FromBigInt(s.tree.DenProduct)), route, nil
	}
	return 0, route, fmt.Errorf("route %q is not replayed", route)
}

// sharded runs one counting phase through the shard pool. The span
// covers rendering the instance text, as core does per sharded call.
func (r *replayer) sharded(spec core.ShardSpec, h *pdb.Probabilistic, root, req int, ref shardRef) (efloat.E, error) {
	t0 := time.Now()
	sp := r.tr.begin("shard.count", root, req)
	spec.DB = pdb.FormatString(h)
	res, err := r.pool.CountSharded(r.sc, spec)
	r.tr.end(sp)
	if err != nil {
		return efloat.Zero, err
	}
	ref.sharded = time.Since(t0)
	r.refs = append(r.refs, ref)
	return res.Value, nil
}

// shardOverhead reruns every sharded count of the pass locally and
// returns the mean of sharded minus local wall time.
func (r *replayer) shardOverhead() time.Duration {
	if len(r.refs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, ref := range r.refs {
		t0 := time.Now()
		if ref.path != nil {
			nfa.Count(ref.path.Auto, ref.path.WordSize, nfa.CountOptions{Epsilon: ref.t.epsilon, Trials: ref.t.trials, Seed: ref.seed, Anytime: true, MaxProcs: 1})
		} else {
			count.Trees(ref.tree.Auto, ref.tree.TreeSize, count.Options{Epsilon: ref.t.epsilon, Trials: ref.t.trials, Seed: ref.seed, Anytime: true, MaxProcs: 1})
		}
		sum += ref.sharded - time.Since(t0)
	}
	return sum / time.Duration(len(r.refs))
}

// layerStat is one layer's self time and span count over a pass.
type layerStat struct {
	self  time.Duration
	spans int
}

// traceReport aggregates a traced pass: per-layer self times, and per
// request the layer sum against the served end-to-end latency.
type traceReport struct {
	layers   map[string]*layerStat
	requests int
	// over counts requests whose layer sum exceeded their latency;
	// layerSum and e2e are the totals over replayed requests.
	over          int
	layerSum, e2e time.Duration
}

// report computes self times: a span's duration minus the part of it
// its children cover.
func (r *replayer) report(recs []*record) traceReport {
	spans := r.tr.spans
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	rep := traceReport{layers: map[string]*layerStat{}}
	for i, s := range spans {
		self := s.end - s.start - child[i]
		if s.parent < 0 {
			rep.requests++
			sum := child[i]
			lat := recs[s.req].latency()
			rep.layerSum += sum
			rep.e2e += lat
			// The layer sum comes from the replay and the latency from
			// the served request: two timings of the same work, so a
			// request counts as over only past a 10% tolerance.
			if sum > lat+lat/10 {
				rep.over++
			}
			continue
		}
		st := rep.layers[s.name]
		if st == nil {
			st = &layerStat{}
			rep.layers[s.name] = st
		}
		st.self += self
		st.spans++
	}
	return rep
}

// replayPasses runs the untraced pass within budget, then the traced
// pass over the same requests, then the shard reference pass.
func replayPasses(e *env, recs []*record, vers versions, budget time.Duration) (*replayer, traceReport, float64, time.Duration, error) {
	var pool *shard.Pool
	if len(e.shardLns) > 0 {
		var addrs []string
		for _, l := range e.shardLns {
			addrs = append(addrs, l.Addr().String())
		}
		p, err := shard.Dial(addrs, shard.PoolConfig{})
		if err != nil {
			return nil, traceReport{}, 0, 0, err
		}
		defer p.Close()
		pool = p
	}
	var ok []*record
	for _, r := range recs {
		if !r.failed() {
			ok = append(ok, r)
		}
	}
	plain := newReplayer(e, ok, vers, false, pool)
	if err := plain.warm(); err != nil {
		return nil, traceReport{}, 0, 0, err
	}
	n, err := plain.run(ok, budget, 0)
	if err != nil {
		return nil, traceReport{}, 0, 0, err
	}
	traced := newReplayer(e, ok, vers, true, pool)
	traced.tr.spans = make([]span, 0, 8*n)
	if err := traced.warm(); err != nil {
		return nil, traceReport{}, 0, 0, err
	}
	if _, err := traced.run(ok, 0, n); err != nil {
		return nil, traceReport{}, 0, 0, err
	}
	overhead := float64(traced.wall) / float64(plain.wall)
	return traced, traced.report(ok), overhead, traced.shardOverhead(), nil
}
