package testkit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"

	"pqe"
	"pqe/internal/pdb"
	"pqe/internal/serve"
)

// serviceSalt separates the service suite's evaluation-seed stream from
// the other suites'.
const serviceSalt = 0x5e41ce

// ServiceHarness is an in-process pqe HTTP service for differential
// testing: generated cases are loaded through the public text formats
// and queried over real HTTP, then cross-checked against direct
// library calls.
type ServiceHarness struct {
	Srv  *serve.Server
	Base string
	ts   *httptest.Server
}

// NewServiceHarness starts a loopback service sized so the suite's
// sequential cases never queue or shed. Close releases the listener.
func NewServiceHarness() *ServiceHarness {
	srv := serve.NewServer(serve.Config{Budget: 4})
	ts := httptest.NewServer(srv.Handler())
	return &ServiceHarness{Srv: srv, Base: ts.URL, ts: ts}
}

func (h *ServiceHarness) Close() { h.ts.Close() }

// serviceResponse mirrors the serve package's estimate response (the
// wire contract, duplicated here so the test fails if the contract
// drifts).
type serviceResponse struct {
	Probability float64 `json:"probability"`
	Exact       bool    `json:"exact"`
	Method      string  `json:"method"`
	Reason      string  `json:"reason"`
	Trials      int64   `json:"trials"`
	Version     uint64  `json:"version"`
}

// serviceStrategies are the strategies every service case runs under.
// The zero strategy routes ("auto"), which on the suite's small
// instances mostly answers exactly from the lineage; "force-nfta" pins
// the tree FPRAS so the trial-count and SSE-event checks also compare
// sampled trials.
var serviceStrategies = []string{"", "force-nfta"}

// RunServiceDifferential drives one generated case through the service
// and cross-checks it against the direct pqe.Estimator byte for byte,
// once per serviceStrategies entry: the same seed must produce the
// bit-identical probability, the same routing method and reason, and
// the same trial count — one-shot and SSE-streamed alike. Both sides
// read the case through the public text formats, so they evaluate
// provably identical instances. It returns the number of trials the
// direct runs sampled, so a suite can tell the trial checks ran.
func RunServiceDifferential(c *Case, cfg Config, h *ServiceHarness) (int64, error) {
	queryText := c.Query.String()
	dbText := pdb.FormatString(c.H)
	q, err := pqe.ParseQuery(queryText)
	if err != nil {
		return 0, fmt.Errorf("query %q does not round-trip: %w", queryText, err)
	}
	serveDB, err := pqe.ParseDatabase(strings.NewReader(dbText))
	if err != nil {
		return 0, fmt.Errorf("instance does not round-trip: %w", err)
	}
	directDB, err := pqe.ParseDatabase(strings.NewReader(dbText))
	if err != nil {
		return 0, fmt.Errorf("instance does not round-trip: %w", err)
	}
	h.Srv.AddDatabase("case", serveDB)

	seed := evalSeed(c, serviceSalt, 0)
	var sampled int64
	for _, strategy := range serviceStrategies {
		trials, err := serviceDifferential(q, directDB, queryText, strategy, seed, cfg, h)
		if err != nil {
			return sampled, fmt.Errorf("strategy %q: %w", strategy, err)
		}
		sampled += trials
	}
	return sampled, nil
}

// serviceDifferential is one RunServiceDifferential comparison under
// one strategy; it returns the direct run's trial count.
func serviceDifferential(q *pqe.Query, directDB *pqe.Database, queryText, strategy string,
	seed int64, cfg Config, h *ServiceHarness) (int64, error) {
	// Direct reference run, counting trials through the telemetry feed
	// (attaching it never perturbs seeded results).
	var directTrials atomic.Int64
	tel := pqe.NewTelemetry()
	tel.OnTrial(func(pqe.TrialUpdate) { directTrials.Add(1) })
	direct, directErr := pqe.Probability(q, directDB, &pqe.Options{
		Strategy:  strategy,
		Epsilon:   cfg.Epsilon,
		Trials:    cfg.Trials,
		Seed:      seed,
		Telemetry: tel,
	})

	body := fmt.Sprintf(`{"query":%q,"database":"case","options":{"strategy":%q,"epsilon":%s,"trials":%d,"seed":%d}}`,
		queryText, strategy, strconv.FormatFloat(cfg.Epsilon, 'g', -1, 64), cfg.Trials, seed)

	status, data, err := servicePost(h.Base+"/v1/estimate", body)
	if err != nil {
		return 0, fmt.Errorf("service estimate: %w", err)
	}
	if directErr != nil {
		// The library refused (unsupported class, …): the service must
		// refuse too, not fabricate a number.
		if status == http.StatusOK {
			return 0, fmt.Errorf("direct call failed (%v) but service returned 200: %s", directErr, data)
		}
		return 0, nil
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("service estimate: status %d: %s (direct succeeded with %v)", status, data, direct.Probability)
	}
	var got serviceResponse
	if err := json.Unmarshal(data, &got); err != nil {
		return 0, fmt.Errorf("service estimate: %v in %s", err, data)
	}
	if math.Float64bits(got.Probability) != math.Float64bits(direct.Probability) {
		return 0, fmt.Errorf("service probability %v != direct %v (seed %d): not bit-identical",
			got.Probability, direct.Probability, seed)
	}
	if got.Method != direct.Method {
		return 0, fmt.Errorf("service method %q != direct %q", got.Method, direct.Method)
	}
	if got.Reason != direct.Reason {
		return 0, fmt.Errorf("service reason %q != direct %q", got.Reason, direct.Reason)
	}
	if got.Exact != direct.Exact {
		return 0, fmt.Errorf("service exact %v != direct %v", got.Exact, direct.Exact)
	}
	if got.Trials != directTrials.Load() {
		return 0, fmt.Errorf("service ran %d trials, direct ran %d", got.Trials, directTrials.Load())
	}

	// Streamed: same request over SSE must converge to the same bits
	// and emit exactly one trial event per trial.
	streamed, events, err := serviceStream(h.Base+"/v1/estimate/stream", body)
	if err != nil {
		return 0, fmt.Errorf("service stream: %w", err)
	}
	if math.Float64bits(streamed.Probability) != math.Float64bits(direct.Probability) {
		return 0, fmt.Errorf("streamed probability %v != direct %v: not bit-identical",
			streamed.Probability, direct.Probability)
	}
	if streamed.Trials != directTrials.Load() || int64(events) != directTrials.Load() {
		return 0, fmt.Errorf("streamed trials %d (events %d) != direct %d",
			streamed.Trials, events, directTrials.Load())
	}
	return directTrials.Load(), nil
}

func servicePost(url, body string) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func serviceStream(url, body string) (serviceResponse, int, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return serviceResponse{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return serviceResponse{}, 0, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	sc := bufio.NewScanner(resp.Body)
	event, trials := "", 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "trial":
				trials++
			case "error":
				return serviceResponse{}, trials, fmt.Errorf("stream error: %s", data)
			case "result":
				var r serviceResponse
				if err := json.Unmarshal([]byte(data), &r); err != nil {
					return serviceResponse{}, trials, err
				}
				return r, trials, nil
			}
		}
	}
	return serviceResponse{}, trials, fmt.Errorf("stream ended without result (%v)", sc.Err())
}
