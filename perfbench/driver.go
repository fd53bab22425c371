package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pqe"
	"pqe/internal/pdb"
	"pqe/internal/serve"
)

// env is one running pqed: the server on a loopback listener, its
// shard workers, and the client the generator uses.
type env struct {
	w        *workload
	dbs      []dbSpec
	versions map[string]uint64 // database version after loading
	srv      *serve.Server
	hs       *http.Server
	base     string
	client   *http.Client
	served   sync.WaitGroup
	shardLns []net.Listener
	pool     *pqe.ShardPool
	logs     *logCapture
}

// setup starts pqed for w, loads its databases and warms every session
// the workload uses. With capture set, pqed's structured log (access
// lines and budget events) is kept for the per-layer report.
func setup(w *workload, capture bool) (*env, error) {
	e := &env{w: w, versions: map[string]uint64{}}
	cfg := serve.Config{}
	if capture {
		e.logs = &logCapture{}
		cfg.Logger = slog.New(e.logs)
	}
	for i := 0; i < w.shards; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.shardLns = append(e.shardLns, l)
		e.served.Add(1)
		go func() {
			defer e.served.Done()
			_ = pqe.ServeShardWorker(l, 1, nil) // returns when the listener closes
		}()
	}
	if len(e.shardLns) > 0 {
		var addrs []string
		for _, l := range e.shardLns {
			addrs = append(addrs, l.Addr().String())
		}
		pool, err := pqe.NewShardPool(addrs...)
		if err != nil {
			e.close()
			return nil, err
		}
		e.pool = pool
		cfg.Shards = pool
	}
	e.srv = serve.NewServer(cfg)
	e.dbs = w.dbs()
	for _, spec := range e.dbs {
		db, err := pqe.ParseDatabase(strings.NewReader(pdb.FormatString(spec.h)))
		if err != nil {
			e.close()
			return nil, err
		}
		e.versions[spec.name] = db.Version()
		e.srv.AddDatabase(spec.name, db)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + l.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served.Add(1)
	go func() {
		defer e.served.Done()
		_ = e.hs.Serve(l) // http.ErrServerClosed after close
	}()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	if err := e.warm(); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// warm sends one cheap estimate per template, least popular first, so
// every session exists and, where the templates outnumber the session
// cache, the most popular ones are the cached ones. Session keys ignore
// ε, trials and seed, so ε 0.5 and one trial build the same sessions.
func (e *env) warm() error {
	for i := len(e.w.templates) - 1; i >= 0; i-- {
		t := e.w.templates[i]
		body := estimateBody(t.query, t.db, 0.5, 1, 1)
		var out estimateResp
		status, err := e.post("/v1/estimate", body, &out)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", t.name, status, out.Error)
		}
	}
	return nil
}

// close stops the server, the shard workers and their pool, and waits
// for the serving goroutines to return.
func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = e.srv.Drain(ctx) // in-flight requests finished or abandoned at the deadline
		cancel()
	}
	if e.hs != nil {
		e.hs.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	for _, l := range e.shardLns {
		l.Close()
	}
	e.served.Wait()
}

type options struct {
	Strategy string  `json:"strategy"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Trials   int     `json:"trials,omitempty"`
	Seed     int64   `json:"seed"`
	MaxProcs int     `json:"max_procs"`
}

// estimateBody renders a /v1/estimate body. Every request names the
// "auto" strategy: pqed's empty strategy is the legacy two-way routing.
func estimateBody(query, db string, eps float64, trials int, seed int64) []byte {
	b, err := json.Marshal(struct {
		Query    string  `json:"query"`
		Database string  `json:"database"`
		Options  options `json:"options"`
	}{query, db, options{Strategy: "auto", Epsilon: eps, Trials: trials, Seed: seed, MaxProcs: 1}})
	if err != nil {
		panic(err)
	}
	return b
}

func deltaBody(db string, ops []deltaOp) []byte {
	b, err := json.Marshal(struct {
		Database string    `json:"database"`
		Ops      []deltaOp `json:"ops"`
	}{db, ops})
	if err != nil {
		panic(err)
	}
	return b
}

// estimateResp is the subset of the pqed estimate response the checks
// read.
type estimateResp struct {
	Probability float64 `json:"probability"`
	Method      string  `json:"method"`
	Version     uint64  `json:"version"`
	Error       string  `json:"error"`
}

type deltaResp struct {
	Version   uint64 `json:"version"`
	Inserts   int    `json:"inserts"`
	Deletes   int    `json:"deletes"`
	Reweights int    `json:"reweights"`
	Error     string `json:"error"`
}

// post sends a JSON body and decodes the JSON response into out.
func (e *env) post(path string, body []byte, out any) (int, error) {
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s response: %w", path, err)
	}
	return resp.StatusCode, nil
}

// postStream sends an estimate to the SSE endpoint and decodes the
// final "result" event; an "error" event becomes its error message.
func (e *env) postStream(body []byte, out *estimateResp) (int, error) {
	resp, err := e.client.Post(e.base+"/v1/estimate/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_ = json.NewDecoder(resp.Body).Decode(out)
		return resp.StatusCode, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && (event == "result" || event == "error"):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), out); err != nil {
				return resp.StatusCode, fmt.Errorf("decode SSE %s event: %w", event, err)
			}
			if event == "error" && out.Error == "" {
				out.Error = "stream error event"
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, nil
		}
	}
	if err := sc.Err(); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, errors.New("stream ended without a result event")
}

// record is the outcome of one sent request. Times are offsets from
// the window start.
type record struct {
	req  *request
	sent time.Duration
	done time.Duration
	// Open loop only: queue is the wait for a free sender on the exact
	// schedule, lag the actual send's lateness against it.
	queue time.Duration
	lag   time.Duration
	// status and err are the transport outcome; wrong is set by the
	// correctness checks.
	status int
	err    string
	wrong  string
	est    estimateResp
	delta  deltaResp
}

// latency is the time from when the request was due to its response:
// the sender wait plus the measured service time.
func (r *record) latency() time.Duration { return r.queue + r.done - r.sent }

func (r *record) failed() bool { return r.err != "" || r.status != http.StatusOK || r.wrong != "" }

// bodies renders every request body before the window, once per
// distinct estimate (template, seed) and once per delta, so the timed
// window spends no generator time on encoding.
func (e *env) bodies(reqs []request) [][]byte {
	type key struct {
		tmpl int
		seed int64
	}
	cache := map[key][]byte{}
	out := make([][]byte, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		if r.delta {
			out[i] = deltaBody(r.db, r.ops)
			continue
		}
		k := key{r.tmpl, r.seed}
		if cache[k] == nil {
			t := e.w.templates[r.tmpl]
			cache[k] = estimateBody(t.query, t.db, t.epsilon, t.trials, r.seed)
		}
		out[i] = cache[k]
	}
	return out
}

// send issues one request and fills rec.
func (e *env) send(r *request, body []byte, rec *record, start time.Time) {
	rec.req = r
	rec.sent = time.Since(start)
	var status int
	var err error
	switch {
	case r.delta:
		status, err = e.post("/v1/delta", body, &rec.delta)
		rec.err = rec.delta.Error
	case r.stream:
		status, err = e.postStream(body, &rec.est)
		rec.err = rec.est.Error
	default:
		status, err = e.post("/v1/estimate", body, &rec.est)
		rec.err = rec.est.Error
	}
	rec.done = time.Since(start)
	rec.status = status
	// Keep the shared method constant, not the decoded copy, so records
	// hold no per-request strings.
	for _, m := range routeMethod {
		if rec.est.Method == m {
			rec.est.Method = m
		}
	}
	if err != nil {
		rec.err = err.Error()
	}
}

// drive runs the streams for window and returns every record in send
// order. Requests in flight at the end of the window complete; none
// starts after it. A closed stream cycles through its list, so a faster
// server never runs it dry. Each sender's records are allocated before
// the window for its share of the list, so the generator's live heap
// stays flat while it runs.
func (e *env) drive(streams []stream, window time.Duration) []*record {
	type sender struct {
		s      *stream
		bodies [][]byte
		next   *atomic.Int64
		recs   []record
	}
	var senders []*sender
	for i := range streams {
		s := &streams[i]
		bodies, next := e.bodies(s.reqs), new(atomic.Int64)
		for g := 0; g < s.senders; g++ {
			senders = append(senders, &sender{s: s, bodies: bodies, next: next,
				recs: make([]record, 0, len(s.reqs)/s.senders+1)})
		}
	}
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	for _, sd := range senders {
		wg.Add(1)
		go func(sd *sender) {
			defer wg.Done()
			s := sd.s
			for {
				i := int(sd.next.Add(1) - 1)
				if s.open {
					if i >= len(s.reqs) || s.reqs[i].at >= window {
						return
					}
					if d := time.Until(start.Add(s.reqs[i].at)); d > 0 {
						time.Sleep(d)
					}
				} else if time.Since(start) >= window {
					return
				}
				i %= len(s.reqs)
				sd.recs = append(sd.recs, record{})
				rec := &sd.recs[len(sd.recs)-1]
				e.send(&s.reqs[i], sd.bodies[i], rec, start)
				if s.open {
					rec.lag = rec.sent - s.reqs[i].at
				}
			}
		}(sd)
	}
	wg.Wait()
	var out []*record
	for i := range streams {
		var recs []*record
		for _, sd := range senders {
			if sd.s == &streams[i] {
				for j := range sd.recs {
					recs = append(recs, &sd.recs[j])
				}
			}
		}
		if streams[i].open {
			sort.Slice(recs, func(a, b int) bool { return recs[a].req.at < recs[b].req.at })
			queueing(recs, streams[i].senders)
		}
		out = append(out, recs...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].sent < out[j].sent })
	return out
}

// queueing sets each open-loop record's wait for a free sender. Go's
// timers wake a sleeping sender up to a millisecond late, so actual send
// times carry the generator's error (reported as gen.lag). The wait is
// therefore computed on the exact schedule: requests in due order go to
// the first free of the stream's senders, each holding it for the
// request's measured service time. A stall still delays every request
// due behind it.
func queueing(recs []*record, senders int) {
	free := make([]time.Duration, senders)
	for _, r := range recs {
		k := 0
		for j := range free {
			if free[j] < free[k] {
				k = j
			}
		}
		start := max(r.req.at, free[k])
		free[k] = start + r.done - r.sent
		r.queue = start - r.req.at
	}
}

// logCapture is an slog.Handler that keeps pqed's access-log lines and
// budget admission events in memory.
type logCapture struct {
	mu       sync.Mutex
	requests []accessLine
	waits    []float64 // budget admission waits, ms
}

type accessLine struct {
	route       string
	status      int
	queueMS     float64
	serializeMS float64
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	switch r.Message {
	case "request":
		var a accessLine
		r.Attrs(func(at slog.Attr) bool {
			switch at.Key {
			case "route":
				a.route = at.Value.String()
			case "status":
				a.status = int(at.Value.Int64())
			case "queue_ms":
				a.queueMS = at.Value.Float64()
			case "serialize_ms":
				a.serializeMS = at.Value.Float64()
			}
			return true
		})
		c.mu.Lock()
		c.requests = append(c.requests, a)
		c.mu.Unlock()
	case "budget":
		admitted, waited := false, 0.0
		r.Attrs(func(at slog.Attr) bool {
			switch at.Key {
			case "event":
				admitted = at.Value.String() == "admitted"
			case "waited_ms":
				waited = at.Value.Float64()
			}
			return true
		})
		if admitted {
			c.mu.Lock()
			c.waits = append(c.waits, waited)
			c.mu.Unlock()
		}
	}
	return nil
}

// reset drops what was captured so far (set-up traffic).
func (c *logCapture) reset() {
	c.mu.Lock()
	c.requests, c.waits = nil, nil
	c.mu.Unlock()
}

// scrapeCounters reads the named counters from pqed's /metrics.
func (e *env) scrapeCounters(names ...string) (map[string]float64, error) {
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var name string
		var v float64
		if _, err := fmt.Sscan(sc.Text(), &name, &v); err != nil {
			continue // comments and labelled series
		}
		if want[name] {
			out[name] = v
		}
	}
	return out, sc.Err()
}
