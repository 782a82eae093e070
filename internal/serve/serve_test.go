package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/exp"
	"beacongnn/internal/platform"
)

// testNodes keeps served simulations small enough for CI while still
// exercising the full platform stack.
const testNodes = 2000

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = 50_000
	}
	return New(cfg)
}

func post(t *testing.T, s http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func simBody(platformName string, extra string) string {
	b := fmt.Sprintf(`{"platform":%q,"dataset":"amazon","nodes":%d,"batches":2`, platformName, testNodes)
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

func TestHandlerValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	tests := []struct {
		name     string
		path     string
		body     string
		wantCode int
		wantErr  string // substring of the error field
	}{
		{"bad JSON", "/v1/simulate", `{"platform":`, http.StatusBadRequest, "bad request body"},
		{"trailing garbage", "/v1/simulate", simBody("BG-2", "") + "x", http.StatusBadRequest, "trailing data"},
		{"unknown field", "/v1/simulate", `{"platform":"BG-2","dataset":"amazon","nodez":5}`, http.StatusBadRequest, "nodez"},
		{"missing platform", "/v1/simulate", `{"dataset":"amazon"}`, http.StatusBadRequest, `"platform"`},
		{"unknown platform", "/v1/simulate", `{"platform":"BG-99","dataset":"amazon"}`, http.StatusBadRequest, "BG-99"},
		{"unknown dataset", "/v1/simulate", `{"platform":"BG-2","dataset":"nope"}`, http.StatusBadRequest, "nope"},
		{"nodes over cap", "/v1/simulate", `{"platform":"BG-2","dataset":"amazon","nodes":999999999}`, http.StatusBadRequest, "nodes"},
		{"negative batches", "/v1/simulate", `{"platform":"BG-2","dataset":"amazon","batches":-1}`, http.StatusBadRequest, "batches"},
		{"negative timeout", "/v1/simulate", simBody("BG-2", `"timeout_ms":-5`), http.StatusBadRequest, "timeout_ms"},
		{"invalid fault config", "/v1/simulate", simBody("BG-2", `"fault":{"dead_dies":[4096]}`), http.StatusBadRequest, "dead die"},
		{"unknown experiment", "/v1/experiment", `{"id":"fig99"}`, http.StatusBadRequest, "fig99"},
		{"experiment bad JSON", "/v1/experiment", `nope`, http.StatusBadRequest, "bad request body"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := post(t, s, tt.path, tt.body)
			if w.Code != tt.wantCode {
				t.Fatalf("code = %d, want %d (body %s)", w.Code, tt.wantCode, w.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("non-JSON error body: %s", w.Body)
			}
			if !strings.Contains(e.Error, tt.wantErr) {
				t.Fatalf("error %q does not mention %q", e.Error, tt.wantErr)
			}
		})
	}
	// Wrong method on a POST route.
	if w := get(t, s, "/v1/simulate"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/simulate = %d, want 405", w.Code)
	}
}

func TestSimulateMatchesDirectRunAndCaches(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	w := post(t, s, "/v1/simulate", simBody("BG-2", ""))
	if w.Code != http.StatusOK {
		t.Fatalf("first request: code %d body %s", w.Code, w.Body)
	}
	if h := w.Header().Get("X-Cache"); h != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", h)
	}
	var resp struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first request reported cached=true")
	}

	// Byte-identical to the same simulation run directly (what the
	// beaconsim CLI executes for these arguments).
	d, err := dataset.ByName("amazon")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	inst, err := dataset.Materialize(d, testNodes, cfg.Flash.PageSize, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := platform.Simulate(platform.BG2, cfg, inst, 2, simTimelinePoints)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Result) != string(want) {
		t.Fatalf("served result differs from direct simulation:\nserved: %.200s\ndirect: %.200s", resp.Result, want)
	}

	// Second identical request: cache hit, no new simulation.
	runsBefore, _ := s.Engine().Stats()
	w2 := post(t, s, "/v1/simulate", simBody("BG-2", ""))
	if w2.Code != http.StatusOK {
		t.Fatalf("second request: code %d body %s", w2.Code, w2.Body)
	}
	if h := w2.Header().Get("X-Cache"); h != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", h)
	}
	var resp2 struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("second request reported cached=false")
	}
	if string(resp2.Result) != string(resp.Result) {
		t.Fatal("cache hit returned a different result")
	}
	runsAfter, _ := s.Engine().Stats()
	if runsAfter != runsBefore {
		t.Fatalf("cache hit re-simulated (runs %d -> %d)", runsBefore, runsAfter)
	}
}

// TestValidatedKeyMatchesEngineKey checks the key decodeSim makes before
// any instance exists against the one exp.Key derives from the
// materialized instance: they must be equal, or a hit would be looked up
// under a key no run ever stored.
func TestValidatedKeyMatchesEngineKey(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"platform":"bg-2","dataset":"amazon","nodes":300,"batches":1}`,
		`{"platform":"CC","dataset":"reddit","nodes":600,"seed":9,"channels":4}`,
		`{"platform":"GList","dataset":"OGBN","nodes":300,"batch_size":16,"fault":{"base_rber":0.001,"dead_dies":[]}}`,
	} {
		job, err := s.decodeSim(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		inst, err := s.Engine().Instance(context.Background(), job.key.Dataset, job.key.Nodes, job.cfg.Flash.PageSize, job.cfg.Seed)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if want := exp.Key(job.key.Kind, job.cfg, inst, job.key.Batches, simTimelinePoints); job.key != want {
			t.Errorf("%s: validated key %+v, engine key %+v", body, job.key, want)
		}
	}
}

// A fault block with empty dead-unit lists is the same simulation as
// one that omits them, so it must be served from the same memo entry.
func TestEmptyDeadListsShareMemoEntry(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	for i, fault := range []string{`{}`, `{"dead_dies":[]}`, `{"dead_dies":[],"dead_channels":[]}`} {
		w := post(t, s, "/v1/simulate", simBody("BG-2", `"fault":`+fault))
		if w.Code != http.StatusOK {
			t.Fatalf("fault %s: code %d body %s", fault, w.Code, w.Body)
		}
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if h := w.Header().Get("X-Cache"); h != want {
			t.Fatalf("fault %s: X-Cache = %q, want %q", fault, h, want)
		}
	}
}

func TestSimulateDeadlineExceeded(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// 1 ms cannot materialize + simulate 2000 nodes; the deadline fires
	// inside the pipeline and must surface as 504, not 500 or a hang.
	w := post(t, s, "/v1/simulate", simBody("BG-2", `"timeout_ms":1`))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d body %s, want 504", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "deadline") {
		t.Fatalf("body %s does not mention the deadline", w.Body)
	}
}

// A timeout_ms past what a Duration holds (~9.2e12 ms) must cap at
// MaxTimeout on both endpoints, not wrap into a negative deadline that
// fires at once.
func TestHugeTimeoutCapsAtMax(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, MaxTimeout: time.Minute})
	max := s.cfg.MaxTimeout
	for _, c := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, s.cfg.DefaultTimeout},
		{1, time.Millisecond},
		{max.Milliseconds(), max},
		{max.Milliseconds() + 1, max},
		{10_000_000_000_000, max},
		{math.MaxInt64, max},
	} {
		got, err := s.requestTimeout(c.ms)
		if err != nil || got != c.want {
			t.Errorf("requestTimeout(%d) = %v, %v; want %v", c.ms, got, err, c.want)
		}
	}

	const huge = `"timeout_ms":10000000000000`
	if w := post(t, s, "/v1/simulate", simBody("BG-2", huge)); w.Code != http.StatusOK {
		t.Fatalf("simulate: code = %d body %s, want 200", w.Code, w.Body)
	}
	// fig14 simulates under the request context, so a wrapped deadline
	// would surface as 504.
	if w := post(t, s, "/v1/experiment", `{"id":"fig14","quick":true,"nodes":1000,"batches":1,`+huge+`}`); w.Code != http.StatusOK {
		t.Fatalf("experiment: code = %d body %s, want 200", w.Code, w.Body)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := post(t, s, "/v1/experiment", `{"id":"table2","quick":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d body %s", w.Code, w.Body)
	}
	var resp ExpResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != "table2" || !strings.Contains(resp.Output, "SSD backend") {
		t.Fatalf("unexpected experiment response: id=%q output=%.120q", resp.ID, resp.Output)
	}

	lw := get(t, s, "/v1/experiments")
	if lw.Code != http.StatusOK || !strings.Contains(lw.Body.String(), "table2") {
		t.Fatalf("experiment list: code %d body %.200s", lw.Code, lw.Body)
	}
}

// TestExperimentInstancesBoundedByCap: /v1/experiment materializes
// through the engine's instance cache, so distinct scales evict past
// CacheInstances instead of growing the heap without bound, and a
// repeat of a resident scale is served without re-materializing.
func TestExperimentInstancesBoundedByCap(t *testing.T) {
	const capInstances = 2
	s := newTestServer(t, Config{Workers: 2, CacheInstances: capInstances})
	nodes := []int{300, 310, 320, 330}
	run := func(n int) {
		t.Helper()
		w := post(t, s, "/v1/experiment", fmt.Sprintf(`{"id":"fig16","nodes":%d,"batches":1}`, n))
		if w.Code != http.StatusOK {
			t.Fatalf("nodes %d: code %d body %.200s", n, w.Code, w.Body)
		}
		if resident, _ := s.Engine().Instances(); resident > capInstances {
			t.Fatalf("after nodes %d: %d resident instances, cap %d", n, resident, capInstances)
		}
	}
	for _, n := range nodes {
		run(n)
	}
	_, materialized := s.Engine().Instances()
	if materialized != uint64(len(nodes)) {
		t.Fatalf("materialized %d instances for %d distinct scales", materialized, len(nodes))
	}
	run(nodes[len(nodes)-1])
	if _, again := s.Engine().Instances(); again != materialized {
		t.Fatalf("repeat of a resident scale re-materialized (%d -> %d)", materialized, again)
	}
}

func TestSheddingReturns429WithRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the engine's only worker slot so the admitted request parks.
	block := make(chan struct{})
	holding := make(chan struct{})
	go s.Engine().ThrottleCtx(context.Background(), func() error { close(holding); <-block; return nil })
	<-holding

	admitted := make(chan *httptest.ResponseRecorder, 1)
	go func() { admitted <- post(t, s, "/v1/simulate", simBody("BG-2", "")) }()
	// Wait until the request holds the single admission slot.
	for s.adm.inflight() != 1 {
		time.Sleep(time.Millisecond)
	}

	w := post(t, s, "/v1/simulate", simBody("BG-1", ""))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d body %s, want 429", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	} else if n, err := time.ParseDuration(ra + "s"); err != nil || n < time.Second {
		t.Fatalf("Retry-After %q is not a positive integer seconds value", ra)
	}
	if !strings.Contains(w.Body.String(), "queue full") {
		t.Fatalf("shed body %s", w.Body)
	}

	close(block)
	if w := <-admitted; w.Code != http.StatusOK {
		t.Fatalf("admitted request: code %d body %.200s", w.Code, w.Body)
	}
}

// TestRetryAfterIgnoresCacheHits pins the shed-estimate fix: near-instant
// cache hits must not drag the Retry-After median below the cost of the
// real simulations a shed client queues behind.
func TestRetryAfterIgnoresCacheHits(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 50; i++ {
		s.reg.Summary(simulateHitSummary).Observe(2 * time.Millisecond)
	}
	s.reg.Summary(simulateMissSummary).Observe(4 * time.Second)
	if !s.adm.tryAcquire() {
		t.Fatal("could not acquire admission slot")
	}
	defer s.adm.release()
	if got := s.retryAfterSeconds(); got < 4 {
		t.Fatalf("retryAfterSeconds = %d, want >= 4 (miss median 4s, 1 worker, 1 inflight)", got)
	}

	// Hit-only history gives no signal about simulation cost: fall back
	// to the no-history default instead of the hits' microsecond median.
	s2 := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 50; i++ {
		s2.reg.Summary(simulateHitSummary).Observe(2 * time.Millisecond)
	}
	if got := s2.retryAfterSeconds(); got != 1 {
		t.Fatalf("retryAfterSeconds with hit-only history = %d, want 1", got)
	}
}

func TestDrainRefusesNewWorkAndFlipsHealthz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz before drain: %d %s", w.Code, w.Body)
	}
	s.BeginDrain()
	if w := get(t, s, "/healthz"); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("healthz during drain: %d %s", w.Code, w.Body)
	}
	if w := post(t, s, "/v1/simulate", simBody("BG-2", "")); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("simulate during drain: %d, want 503", w.Code)
	}
	if w := post(t, s, "/v1/experiment", `{"id":"table2"}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("experiment during drain: %d, want 503", w.Code)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	if w := post(t, s, "/v1/simulate", simBody("BG-2", "")); w.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", w.Code, w.Body)
	}
	post(t, s, "/v1/simulate", simBody("BG-2", "")) // one hit
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE beaconserved_requests_total counter",
		`beaconserved_responses_total{code="200"} 2`,
		"beaconserved_cache_hits_total 1",
		"beaconserved_cache_misses_total 1",
		"beaconserved_uptime_seconds",
		"# TYPE beaconserved_request_seconds summary",
		`beaconserved_request_seconds_count{endpoint="simulate",cache="miss"} 1`,
		`beaconserved_request_seconds_count{endpoint="simulate",cache="hit"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestConcurrentHammerRaceFree drives the full stack — admission,
// dedup, cache, pool — from many goroutines while a drain lands midway.
// Run under -race (tier-1 does) it proves shedding and shutdown are
// race-free; functionally it asserts every response is one of
// 200/429/503 and all 200s for one key carry identical results.
func TestConcurrentHammerRaceFree(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 3})
	body := simBody("BG-2", "")
	const clients = 24
	var ok200, shed429, drain503 atomic.Int64
	results := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, "/v1/simulate", body)
			switch w.Code {
			case http.StatusOK:
				ok200.Add(1)
				var resp struct {
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err == nil {
					results[i] = string(resp.Result)
				}
			case http.StatusTooManyRequests:
				shed429.Add(1)
				if w.Header().Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			case http.StatusServiceUnavailable:
				drain503.Add(1)
			default:
				t.Errorf("unexpected status %d: %.200s", w.Code, w.Body)
			}
		}(i)
	}
	// Land a drain while traffic is in flight.
	time.Sleep(10 * time.Millisecond)
	s.BeginDrain()
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("no request succeeded before the drain")
	}
	var first string
	for _, r := range results {
		if r == "" {
			continue
		}
		if first == "" {
			first = r
		} else if r != first {
			t.Fatal("two 200 responses for the same key differ")
		}
	}
	t.Logf("hammer: %d ok, %d shed, %d drained", ok200.Load(), shed429.Load(), drain503.Load())
}
