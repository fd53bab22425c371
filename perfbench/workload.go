package main

import (
	"fmt"
	"sort"
	"time"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/pdb"
	"pqe/internal/splitmix"
)

// Route names are the router strategies (internal/router) a template
// is built to reach; they key the router.dispatch.* metrics.
const (
	routeSafePlan = "safeplan"
	routeOBDD     = "obdd"
	routeNFA      = "nfa"
	routeNFTA     = "nfta"
)

var routes = []string{routeSafePlan, routeOBDD, routeNFA, routeNFTA}

// routeMethod is the pqed response "method" each route must produce.
var routeMethod = map[string]string{
	routeSafePlan: string(core.MethodSafePlan),
	routeOBDD:     string(core.MethodOBDD),
	routeNFA:      string(core.MethodFPRASPath),
	routeNFTA:     string(core.MethodFPRASTree),
}

// template is one (query, database, options) shape of estimate request.
type template struct {
	name    string
	query   string
	db      string
	route   string
	epsilon float64
	trials  int
}

// dbSpec is one served database with its fixed base content. Database
// contents never depend on the workload seed, so every seed measures
// the same instances; only the request stream varies.
type dbSpec struct {
	name string
	h    *pdb.Probabilistic
}

// deltaOp mirrors one op of the POST /v1/delta body.
type deltaOp struct {
	Op       string   `json:"op"`
	Relation string   `json:"relation"`
	Args     []string `json:"args"`
	Prob     string   `json:"prob,omitempty"`
}

// request is one generated request. Estimates carry a template, seed
// and transport; deltas carry their ops. at is the scheduled send
// offset on open-loop streams.
type request struct {
	delta  bool
	at     time.Duration
	tmpl   int
	seed   int64
	stream bool
	db     string
	ops    []deltaOp
}

// stream is one generator loop. An open stream sends each request at
// its scheduled offset from senders goroutines; a closed stream keeps
// senders clients busy back to back, cycling through its list.
type stream struct {
	open    bool
	senders int
	reqs    []request
}

// workload is one traffic mix against an in-process pqed.
type workload struct {
	name string
	// loop and load describe the generator for reports.
	loop string
	load string
	// moves lists the per-layer metrics the workload is built to move.
	moves     []string
	templates []template
	// dbs generates the served databases; set-up time includes it.
	dbs func() []dbSpec
	// shards is the number of in-process shard workers behind
	// Config.Shards (0 = local evaluation).
	shards int
	// routes is the set of router strategies the mix must reach.
	routes []string
	// gen generates the streams one run sends from the seed.
	gen func(w *workload, dbs []dbSpec, seed int64, window time.Duration) []stream
}

// Splitmix sites: one independent stream per generated property, so
// adding draws for one property never shifts another.
const (
	siteChoice uint64 = 0x7c01ce
	siteDelta  uint64 = 0xde17a
)

// churnWriteEvery is the churn writer's fixed delta interval.
const churnWriteEvery = 100 * time.Millisecond

// sessionLRU is pqed's default session-cache size; exact-mix spreads
// its traffic over more pairs than this.
const sessionLRU = 64

var workloads = []*workload{exactMix(), fprasMix(), churn(), fprasSharded()}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func mustParse(s string) *cq.Query {
	q, err := cq.Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// exactQueries are the per-database query shapes of exact-mix: four
// hierarchical queries over 80-fact relations, answered by the safe
// plan in 1–4 ms, and two unsafe path queries over 4-fact relations
// whose witness bound 64 ≤ 512 routes them to OBDD weighted model
// counting.
var exactQueries = []struct {
	text  string
	route string
}{
	{"A1(x,y1), A2(x,y2)", routeSafePlan},
	{"A1(x,y1), A2(x,y2), A3(x,y3)", routeSafePlan},
	{"A2(x,y2), A3(x,y3)", routeSafePlan},
	{"B1(x,y), B2(y,z)", routeSafePlan},
	{"P1(x,y), P2(y,z), P3(z,w)", routeOBDD},
	{"P2(x,y), P3(y,z), P1(z,w)", routeOBDD},
}

const exactDBs = 16

func exactMix() *workload {
	w := &workload{
		name: "exact-mix",
		loop: "closed",
		load: "2 clients",
		moves: []string{"serve.serialize_ms_p50", "serve.session_hit_ratio", "serve.session_evictions",
			"router.decide_us", "hypertree.decompose_us", "safeplan.eval_us", "lineage.compute_us",
			"obdd.compile_us", "obdd.wmc_us"},
		routes: []string{routeSafePlan, routeOBDD},
		dbs:    exactDBSpecs,
		gen:    genExact,
	}
	// Zipf rank r takes pair (r·37 mod 96): popularity is spread over
	// databases and query shapes rather than sorted by them.
	n := exactDBs * len(exactQueries)
	for r := 0; r < n; r++ {
		p := (r * 37) % n
		dbi, qi := p/len(exactQueries), p%len(exactQueries)
		w.templates = append(w.templates, template{
			name:  fmt.Sprintf("exact%02d/q%d", dbi, qi),
			query: exactQueries[qi].text,
			db:    exactDBName(dbi),
			route: exactQueries[qi].route,
		})
	}
	return w
}

func exactDBName(i int) string { return fmt.Sprintf("exact%02d", i) }

// exactDBSpecs generates the exact-mix databases: 80 facts in each of
// A1–A3, B1 and B2, and 4 in each of P1–P3. The 12 P facts are few
// enough that every OBDD answer is also checked by brute force.
func exactDBSpecs() []dbSpec {
	big := mustParse("A1(x,y1), A2(x,y2), A3(x,y3), B1(a,b), B2(b,c)")
	small := mustParse("P1(a,b), P2(b,c), P3(c,d)")
	var dbs []dbSpec
	for i := 0; i < exactDBs; i++ {
		text := pdb.FormatString(gen.Instance(big, gen.Config{FactsPerRelation: 80, DomainSize: 16, Model: gen.ProbRandomRational, Seed: int64(100 + i)})) +
			pdb.FormatString(gen.Instance(small, gen.Config{FactsPerRelation: 4, DomainSize: 4, Model: gen.ProbRandomRational, Seed: int64(200 + i)}))
		h, err := pdb.ParseString(text)
		if err != nil {
			panic(err) // generated content
		}
		dbs = append(dbs, dbSpec{exactDBName(i), h})
	}
	return dbs
}

// fprasTemplates are the FPRAS requests shared by fpras-mix and
// fpras-sharded, each 35–300 ms at max_procs 1, ε 0.1.
var fprasTemplates = []template{
	{name: "path3-half", query: cq.PathQuery("R", 3).String(), db: "path-half", route: routeNFA, epsilon: 0.1},
	{name: "triangle-half", query: cq.CycleQuery("C", 3).String(), db: "triangle-half", route: routeNFTA, epsilon: 0.1},
	{name: "path3-rational", query: cq.PathQuery("R", 3).String(), db: "path-rational", route: routeNFA, epsilon: 0.1},
}

func fprasDBSpecs() []dbSpec {
	path := cq.PathQuery("R", 3)
	tri := cq.CycleQuery("C", 3)
	return []dbSpec{
		{"path-half", gen.Instance(path, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 13})},
		{"triangle-half", gen.Instance(tri, gen.Config{FactsPerRelation: 9, DomainSize: 4, Seed: 21})},
		{"path-rational", gen.Instance(path, gen.Config{FactsPerRelation: 10, DomainSize: 4, Model: gen.ProbRandomRational, Seed: 13})},
	}
}

func fprasMix() *workload {
	return &workload{
		name: "fpras-mix",
		loop: "closed",
		load: "2 clients",
		moves: []string{"count.sample_ms", "nfa.sample_ms", "count.trials", "nfa.trials",
			"count.union_samples", "nfa.union_samples", "serve.queue_ms_p90", "serve.budget_wait_ms_p90"},
		routes:    []string{routeNFA, routeNFTA},
		templates: fprasTemplates,
		dbs:       fprasDBSpecs,
		gen:       genFPRAS(2),
	}
}

func fprasSharded() *workload {
	return &workload{
		name: "fpras-sharded",
		loop: "closed",
		load: "1 client; 2 shard workers at max_procs 1",
		moves: []string{"shard.count_ms", "shard.overhead_ms", "shard.ranges",
			"count.sample_ms", "nfa.sample_ms"},
		routes:    []string{routeNFA, routeNFTA},
		shards:    2,
		templates: fprasTemplates,
		dbs:       fprasDBSpecs,
		gen:       genFPRAS(1),
	}
}

// churn reads path3 over 40 facts per relation, where a rebuild is
// about 30% of a read at ε 0.5, trials 1.
func churn() *workload {
	return &workload{
		name: "churn",
		loop: "closed reader + open writer",
		load: "1 reader; 1 writer at 10 deltas/s (insert or delete, plus a reweight)",
		moves: []string{"reduction.build_ms", "reduction.weight_ms", "trim_ms", "reduction.states",
			"hypertree.decompose_us", "pdb.apply_delta_us", "serve.queue_ms_p90"},
		routes:    []string{routeNFA},
		templates: []template{{name: "path3-churn", query: cq.PathQuery("R", 3).String(), db: "churn", route: routeNFA, epsilon: 0.5, trials: 1}},
		dbs: func() []dbSpec {
			path := cq.PathQuery("R", 3)
			return []dbSpec{{"churn", gen.Instance(path, gen.Config{FactsPerRelation: 40, DomainSize: 20, Seed: 31})}}
		},
		gen: genChurn,
	}
}

// zipf draws ranks 0..n-1 with probability ∝ 1/(r+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(u float64) int {
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// genExact draws Zipf-chosen estimates: a list covering 4000 req/s,
// over twice the 2-client saturation measured on a 2-CPU host.
func genExact(w *workload, _ []dbSpec, seed int64, window time.Duration) []stream {
	choice := splitmix.Derive(seed, siteChoice, 0)
	z := newZipf(len(w.templates))
	reqs := make([]request, int(window.Seconds()*4000)+1)
	for i := range reqs {
		reqs[i] = request{tmpl: z.draw(choice.Float64()), seed: 1}
	}
	return []stream{{senders: 2, reqs: reqs}}
}

// fprasSeeds is the request-seed pool of the FPRAS templates. Each run
// sends every (template, seed) pair equally often in shuffled blocks,
// so a run's total sampling work does not depend on the workload seed.
var fprasSeeds = []int64{1, 2, 3, 4}

// genFPRAS builds the closed-loop block-shuffled request list; the
// first seed of every template is sent over SSE.
func genFPRAS(clients int) func(w *workload, dbs []dbSpec, seed int64, window time.Duration) []stream {
	return func(w *workload, _ []dbSpec, seed int64, window time.Duration) []stream {
		var block []request
		for ti := range w.templates {
			for si, s := range fprasSeeds {
				block = append(block, request{tmpl: ti, seed: s, stream: si == 0})
			}
		}
		// Blocks for the requests the window takes at ≥ 30 ms each.
		n := int(window/(30*time.Millisecond))*clients/len(block) + 2
		return []stream{{senders: clients, reqs: shuffledBlocks(block, n, splitmix.Derive(seed, siteChoice, 0))}}
	}
}

// shuffledBlocks returns n copies of block, each in its own
// Fisher–Yates order.
func shuffledBlocks(block []request, n int, rng splitmix.Stream) []request {
	out := make([]request, 0, n*len(block))
	for b := 0; b < n; b++ {
		cp := append([]request(nil), block...)
		for i := len(cp) - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			cp[i], cp[j] = cp[j], cp[i]
		}
		out = append(out, cp...)
	}
	return out
}

// churnSeeds is the churn reader's request-seed pool.
var churnSeeds = []int64{1, 2}

// maxNonHalf bounds how many churn facts carry a non-½ probability, so
// the weighted automaton, and with it the read cost, stays the same
// size however long the run.
const maxNonHalf = 4

// genChurn builds the reader's closed-loop list and the writer's
// fixed-rate delta schedule.
func genChurn(w *workload, dbs []dbSpec, seed int64, window time.Duration) []stream {
	choice := splitmix.Derive(seed, siteChoice, 0)
	nReads := int(window/(5*time.Millisecond)) + 1
	reads := make([]request, nReads)
	for i := range reads {
		reads[i] = request{tmpl: 0, seed: churnSeeds[choice.Uint64()%uint64(len(churnSeeds))]}
	}
	horizon := window + window/4 + time.Second
	writes := churnDeltas(dbs[0], seed, int(horizon/churnWriteEvery))
	for i := range writes {
		writes[i].at = time.Duration(i+1) * churnWriteEvery
	}
	return []stream{
		{senders: 1, reqs: reads},
		{open: true, senders: 1, reqs: writes},
	}
}

// churnDeltas draws the writer's deltas: each makes one structural op
// and one reweight on the query relations, valid when applied in order.
// The database stays within one fact and maxNonHalf probabilities of
// its base content, so the read cost does not drift with the seed: a
// delta deletes a present fact or inserts back the one the previous
// delta deleted (at the end of the fact order), and its reweight moves
// one fact off ½, or back to ½ once maxNonHalf are off.
func churnDeltas(db dbSpec, seed int64, n int) []request {
	rng := splitmix.Derive(seed, siteDelta, 0)
	pick := func(k int) int { return int(rng.Uint64() % uint64(k)) }
	type fact struct{ rel, a, b string }
	var present []fact
	prob := map[fact]string{}
	for _, f := range db.h.DB().Facts() {
		k := fact{f.Relation, f.Args[0], f.Args[1]}
		present = append(present, k)
		prob[k] = "1/2"
	}
	var deleted *fact
	nonHalf := 0
	out := make([]request, n)
	for i := range out {
		var ops []deltaOp
		if f := deleted; f != nil {
			present = append(present, *f)
			prob[*f] = "1/2"
			deleted = nil
			ops = append(ops, deltaOp{Op: "insert", Relation: f.rel, Args: []string{f.a, f.b}, Prob: "1/2"})
		} else {
			j := pick(len(present))
			f := present[j]
			present = append(present[:j], present[j+1:]...)
			if prob[f] != "1/2" {
				nonHalf--
			}
			delete(prob, f)
			deleted = &f
			ops = append(ops, deltaOp{Op: "delete", Relation: f.rel, Args: []string{f.a, f.b}})
		}
		// Reweight: back to ½ once maxNonHalf facts are off ½, else
		// away from ½.
		var cands []fact
		for _, f := range present {
			if (prob[f] != "1/2") == (nonHalf >= maxNonHalf) {
				cands = append(cands, f)
			}
		}
		f := cands[pick(len(cands))]
		p := "1/2"
		if prob[f] == "1/2" {
			p = []string{"1/4", "3/4"}[pick(2)]
			nonHalf++
		} else {
			nonHalf--
		}
		prob[f] = p
		ops = append(ops, deltaOp{Op: "reweight", Relation: f.rel, Args: []string{f.a, f.b}, Prob: p})
		out[i] = request{delta: true, db: db.name, ops: ops}
	}
	return out
}
