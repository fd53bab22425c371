package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"

	"pqe"
	"pqe/internal/pdb"
)

// bruteForceMaxFacts is the number of facts over a query's relations up
// to which exact answers are also checked against enumeration of every
// possible world.
const bruteForceMaxFacts = 20

// versions maps each read database's served versions to the number of
// deltas applied before them. A database is written by at most one
// writer, whose deltas apply in send order.
type versions map[string]map[uint64]int

func newVersions(e *env, recs []*record) versions {
	read := map[string]bool{}
	for _, r := range recs {
		if !r.req.delta {
			read[e.w.templates[r.req.tmpl].db] = true
		}
	}
	v := versions{}
	for db := range read {
		v[db] = map[uint64]int{e.versions[db]: 0}
		for k, r := range appliedDeltas(recs, db) {
			v[db][r.delta.Version] = k + 1
		}
	}
	return v
}

// appliedDeltas returns the successful deltas on db in send order.
func appliedDeltas(recs []*record, db string) []*record {
	var out []*record
	for _, r := range recs {
		if r.req.delta && r.req.db == db && r.status == http.StatusOK && r.err == "" {
			out = append(out, r)
		}
	}
	return out
}

// checkKey identifies one expected answer: template, request seed and
// the number of deltas applied to the database.
type checkKey struct {
	tmpl int
	seed int64
	n    int
}

type expected struct {
	prob  float64
	brute *float64 // exact routes on small databases only
	err   error
}

// check verifies every record outside the timed window and marks wrong
// answers: status 200, the template's method, the probability
// bit-identical to a direct pqe.Probability call with the same options
// on the database at the same version, and for exact routes over ≤ 20
// facts equality with pqe.BruteForceProbability. Deltas must report
// the op counts they were sent with.
func check(e *env, recs []*record, vers versions) {
	need := map[checkKey]bool{}
	for _, r := range recs {
		if r.req.delta || r.err != "" || r.status != http.StatusOK {
			continue
		}
		t := e.w.templates[r.req.tmpl]
		n, ok := vers[t.db][r.est.Version]
		if !ok {
			r.wrong = fmt.Sprintf("version %d of %s was never produced", r.est.Version, t.db)
			continue
		}
		need[checkKey{r.req.tmpl, r.req.seed, n}] = true
	}
	want := expectations(e, recs, need)
	for _, r := range recs {
		if r.wrong == "" && r.err == "" && r.status == http.StatusOK {
			r.wrong = verify(e, r, vers, want)
		}
	}
}

func verify(e *env, r *record, vers versions, want map[checkKey]*expected) string {
	if r.req.delta {
		var ins, del, rew int
		for _, op := range r.req.ops {
			switch op.Op {
			case "insert":
				ins++
			case "delete":
				del++
			case "reweight":
				rew++
			}
		}
		if r.delta.Inserts != ins || r.delta.Deletes != del || r.delta.Reweights != rew {
			return fmt.Sprintf("delta applied %d/%d/%d ops, sent %d/%d/%d",
				r.delta.Inserts, r.delta.Deletes, r.delta.Reweights, ins, del, rew)
		}
		return ""
	}
	t := e.w.templates[r.req.tmpl]
	if m := routeMethod[t.route]; r.est.Method != m {
		return fmt.Sprintf("%s: method %q, want %q", t.name, r.est.Method, m)
	}
	x := want[checkKey{r.req.tmpl, r.req.seed, vers[t.db][r.est.Version]}]
	if x.err != nil {
		return fmt.Sprintf("%s: direct evaluation failed: %v", t.name, x.err)
	}
	if math.Float64bits(r.est.Probability) != math.Float64bits(x.prob) {
		return fmt.Sprintf("%s seed %d: served %v, direct pqe.Probability %v", t.name, r.req.seed, r.est.Probability, x.prob)
	}
	if x.brute != nil && r.est.Probability != *x.brute {
		return fmt.Sprintf("%s: served %v, brute force %v", t.name, r.est.Probability, *x.brute)
	}
	return ""
}

// expectations computes every needed answer directly, replaying the
// applied deltas onto a fresh copy of each database's base content to
// reach the served version. Evaluations run on two goroutines, each on
// its own parsed copy of the database.
func expectations(e *env, recs []*record, need map[checkKey]bool) map[checkKey]*expected {
	keys := make([]checkKey, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.n != b.n {
			return a.n < b.n
		}
		if a.tmpl != b.tmpl {
			return a.tmpl < b.tmpl
		}
		return a.seed < b.seed
	})
	// Database text at every needed (database, n).
	texts := map[string]map[int]string{}
	for _, spec := range e.dbs {
		var ns []int
		for _, k := range keys {
			if e.w.templates[k.tmpl].db == spec.name {
				ns = append(ns, k.n)
			}
		}
		if len(ns) == 0 {
			continue
		}
		texts[spec.name] = dbTexts(spec, appliedDeltas(recs, spec.name), ns)
	}
	want := make(map[checkKey]*expected, len(keys))
	for _, k := range keys {
		want[k] = &expected{}
	}
	brute := map[[2]int]*float64{} // (tmpl, n) → brute-force answer
	var mu sync.Mutex
	jobs := make(chan checkKey)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				t := e.w.templates[k.tmpl]
				x := want[k]
				text := texts[t.db][k.n]
				db, err := pqe.ParseDatabase(strings.NewReader(text))
				if err != nil {
					x.err = err
					continue
				}
				q, err := pqe.ParseQuery(t.query)
				if err != nil {
					x.err = err
					continue
				}
				res, err := pqe.Probability(q, db, &pqe.Options{
					Strategy: "auto", Epsilon: t.epsilon, Trials: t.trials, Seed: k.seed, MaxProcs: 1,
				})
				x.prob, x.err = res.Probability, err
				if x.err != nil || !res.Exact {
					continue
				}
				// Facts outside the query's relations do not change its
				// probability, so the brute force enumerates the worlds of
				// the projection.
				proj, err := projection(text, t.query)
				if err != nil {
					x.err = err
					continue
				}
				if proj.Size() > bruteForceMaxFacts {
					continue
				}
				bk := [2]int{k.tmpl, k.n}
				mu.Lock()
				b, done := brute[bk]
				mu.Unlock()
				if !done {
					p, err := pqe.BruteForceProbability(q, proj)
					if err != nil {
						x.err = err
						continue
					}
					f, _ := p.Float64()
					b = &f
					mu.Lock()
					brute[bk] = b
					mu.Unlock()
				}
				x.brute = b
			}
		}()
	}
	for _, k := range keys {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return want
}

// projection parses the facts of the database text that lie over the
// query's relations.
func projection(text, query string) (*pqe.Database, error) {
	h, err := pdb.ParseString(text)
	if err != nil {
		return nil, err
	}
	return pqe.ParseDatabase(strings.NewReader(pdb.FormatString(h.Project(mustParse(query).RelationSet()))))
}

// dbTexts replays deltas in order onto the base content and snapshots
// the database text after each needed count of applied deltas. Text
// round-trips keep the fact order, which the automata encode.
func dbTexts(spec dbSpec, deltas []*record, ns []int) map[int]string {
	out := map[int]string{}
	h, err := pdb.ParseString(pdb.FormatString(spec.h))
	if err != nil {
		panic(err) // the base content was generated by this program
	}
	sort.Ints(ns)
	applied := 0
	for _, n := range ns {
		for ; applied < n && applied < len(deltas); applied++ {
			if _, err := h.ApplyDelta(toPDBDelta(deltas[applied].req.ops)); err != nil {
				panic(fmt.Sprintf("replaying served delta %d on %s: %v", applied, spec.name, err))
			}
		}
		out[n] = pdb.FormatString(h)
	}
	return out
}

// toPDBDelta lowers wire ops to pdb ops the way pqed's delta handler
// does.
func toPDBDelta(ops []deltaOp) pdb.Delta {
	var d pdb.Delta
	for _, op := range ops {
		f := pdb.NewFact(op.Relation, op.Args...)
		var p pdb.Prob
		if op.Prob != "" {
			var num, den int64
			if _, err := fmt.Sscanf(op.Prob, "%d/%d", &num, &den); err != nil {
				panic(fmt.Sprintf("generated probability %q: %v", op.Prob, err))
			}
			p = pdb.NewProb(num, den)
		}
		switch op.Op {
		case "insert":
			d = append(d, pdb.Insert(f, p))
		case "delete":
			d = append(d, pdb.Delete(f))
		case "reweight":
			d = append(d, pdb.Reweight(f, p))
		}
	}
	return d
}
