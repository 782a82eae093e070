package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testCluster(t *testing.T, n int, cfg Config) *Cluster {
	t.Helper()
	c := NewCluster(n, cfg)
	t.Cleanup(func() { c.CancelInflight() })
	return c
}

// routeBody returns a small /v1/simulate body whose routing key varies
// with seed. Only the flash read latency changes with it, so a replica
// materializes its instance once and each new seed costs one
// single-batch simulation of a 256-node graph.
func routeBody(seed int) string {
	return fmt.Sprintf(`{"platform":"BG-2","dataset":"amazon","nodes":256,"batches":1,"read_latency_ns":%d}`, 1000+seed)
}

func postSim(c *Cluster, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	return rec
}

func TestClusterPlacementIsStableAndSpreads(t *testing.T) {
	c := testCluster(t, 3, Config{})
	// Same body always lands on the same replica (cache affinity).
	first := postSim(c, routeBody(42)).Header().Get("X-Replica")
	if first == "" {
		t.Fatal("no X-Replica header")
	}
	for i := 0; i < 5; i++ {
		if got := postSim(c, routeBody(42)).Header().Get("X-Replica"); got != first {
			t.Fatalf("same request moved replicas: %s then %s", first, got)
		}
	}
	// Distinct keys spread across more than one replica.
	seen := map[string]bool{}
	for seed := 0; seed < 32; seed++ {
		seen[postSim(c, routeBody(seed)).Header().Get("X-Replica")] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 distinct keys all routed to one replica: %v", seen)
	}
}

// TestClusterEquivalentRequestsShareReplica places spellings of one
// simulation — defaults written out, the platform name in another case,
// a deadline — by their validated jobs' keys and requires one placement
// for all of them, so one replica simulates and memoizes the key. A
// body that fails validation is not placed.
func TestClusterEquivalentRequestsShareReplica(t *testing.T) {
	c := testCluster(t, 4, Config{})
	place := func(body string) (uint64, error) {
		job, err := c.replicas[0].srv.decodeSim(strings.NewReader(body))
		return simRingKey(job.key), err
	}
	want, err := place(`{"platform":"BG-2","dataset":"amazon"}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"platform":"BG-2","dataset":"amazon","nodes":10000}`,
		`{"platform":"BG-2","dataset":"amazon","batches":6}`,
		`{"platform":"bg-2","dataset":"amazon"}`,
		`{"platform":"BG-2","dataset":"amazon","timeout_ms":5000}`,
	} {
		if got, err := place(body); err != nil || got != want {
			t.Errorf("%s: key %x (err %v) on replica %d, want %x on replica %d",
				body, got, err, c.candidates(got)[0], want, c.candidates(want)[0])
		}
	}
	if _, err := place(`{"platform":"BG-2","dataset":"no-such-dataset"}`); err == nil {
		t.Error("a body that fails validation was placed")
	}
}

// TestClusterRejectsBadBodiesAtRouter sends bodies that fail the strict
// decode or validation — an unknown experiment field, an unknown
// dataset, trailing data — to a cluster and to a single server: the
// router answers each itself with the server's 400 and error body,
// without an X-Replica header and without counting a replica request.
func TestClusterRejectsBadBodiesAtRouter(t *testing.T) {
	c := testCluster(t, 2, Config{})
	single := newTestServer(t, Config{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/experiment", `{"id":"fig14","quick":true,"bogus":1}`},
		{"/v1/experiment", `{"id":"no-such-figure"}`},
		{"/v1/simulate", `{"platform":"BG-2","dataset":"no-such-dataset"}`},
		{"/v1/simulate", `{"platform":"BG-2","dataset":"amazon"} {}`},
		{"/v1/simulate", `{"platform":"BG-2","dataset":"amazon"}}`},
		{"/v1/experiment", `{"id":"fig14"}]`},
	} {
		got, want := post(t, c, tc.path, tc.body), post(t, single, tc.path, tc.body)
		if got.Code != http.StatusBadRequest || got.Body.String() != want.Body.String() ||
			got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s %s: router %d %q, single server %d %q",
				tc.path, tc.body, got.Code, got.Body, want.Code, want.Body)
		}
		if id := got.Header().Get("X-Replica"); id != "" {
			t.Errorf("%s %s: rejected body routed to replica %s", tc.path, tc.body, id)
		}
	}
	for i, r := range c.replicas {
		if n := r.requests.Value(); n != 0 {
			t.Errorf("replica %d counted %d requests, want 0", i, n)
		}
	}
}

// TestClusterDecodesAndDigestsOnce counts, through the package's decode
// and digest hooks, what one routed simulate request costs: a miss makes
// one strict decode and one config digest, in the router, which hands
// the replica the job; a repeat of the same bytes is answered from the
// router's body index with neither; and a respelling of the same key is
// new bytes, so it decodes and digests once and reads the memo's hit.
func TestClusterDecodesAndDigestsOnce(t *testing.T) {
	c := testCluster(t, 2, Config{})
	decodes := countDecodes(t)
	var digests atomic.Int64
	t.Cleanup(func() { digestHook = nil })
	digestHook = func() { digests.Add(1) }
	body := routeBody(5)
	for _, tc := range []struct {
		name, body, cache string
		work              int64
	}{
		{"miss", body, "miss", 1},
		{"repeat", body, "hit", 0},
		{"respelled", strings.Replace(body, "BG-2", "bg-2", 1), "hit", 1},
	} {
		decodes.Store(0)
		digests.Store(0)
		rec := postSim(c, tc.body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != tc.cache {
			t.Fatalf("%s: code %d X-Cache %q, want %s: %.200s", tc.name, rec.Code, rec.Header().Get("X-Cache"), tc.cache, rec.Body)
		}
		if decodes.Load() != tc.work || digests.Load() != tc.work {
			t.Errorf("%s: %d decodes and %d digests, want %d and %d", tc.name, decodes.Load(), digests.Load(), tc.work, tc.work)
		}
	}
}

func TestClusterKillFallsThroughAndRecovers(t *testing.T) {
	c := testCluster(t, 2, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	body := routeBody(7)
	primary := postSim(c, body).Header().Get("X-Replica")
	var pid int
	fmt.Sscanf(primary, "%d", &pid)

	c.Kill(pid)
	rec := postSim(c, body)
	got := rec.Header().Get("X-Replica")
	if got == primary {
		t.Fatalf("request still routed to killed replica %s", primary)
	}
	if rec.Header().Get("X-Replica-Fallback") != "1" {
		t.Fatal("fallback serve not marked")
	}

	c.Recover(pid)
	if got := postSim(c, body).Header().Get("X-Replica"); got != primary {
		t.Fatalf("recovered replica not restored as primary: %s vs %s", got, primary)
	}
}

// Regression: a dead replica on a 1-survivor cluster must not be
// re-probed more often than the breaker half-open interval. Before the
// breaker guarded routing, every request contacted the dead replica
// first — a probe storm that doubled tail latency for the survivor's
// whole key range.
func TestClusterDeadReplicaProbeClamped(t *testing.T) {
	c := testCluster(t, 2, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	body := routeBody(7)
	primary := postSim(c, body).Header().Get("X-Replica")
	var pid int
	fmt.Sscanf(primary, "%d", &pid)
	survivor := 1 - pid

	c.Kill(pid)
	const hammer = 50
	for i := 0; i < hammer; i++ {
		rec := postSim(c, body)
		if got := rec.Header().Get("X-Replica"); got != fmt.Sprint(survivor) {
			t.Fatalf("request %d not served by survivor: %q", i, got)
		}
	}
	// Threshold 1 → exactly one contact trips the breaker Open; with an
	// hour's cooldown the hammer must never touch the dead replica
	// again.
	if probes := c.replicas[pid].deadProbes.Value(); probes > 1 {
		t.Fatalf("dead replica probed %d times during hammer; breaker should clamp to 1", probes)
	}
	if got := c.replicas[survivor].requests.Value(); got < hammer {
		t.Fatalf("survivor served %d of %d hammer requests", got, hammer)
	}
}

func TestClusterHealthzStates(t *testing.T) {
	c := testCluster(t, 2, Config{})
	get := func() (int, map[string]any) {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var m map[string]any
		json.Unmarshal(rec.Body.Bytes(), &m)
		return rec.Code, m
	}
	if code, m := get(); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("healthy cluster: %d %v", code, m)
	}
	c.Kill(0)
	if code, m := get(); code != http.StatusOK || m["status"] != "degraded" {
		t.Fatalf("one-dead cluster: %d %v", code, m)
	}
	c.Kill(1)
	if code, _ := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead cluster healthz %d, want 503", code)
	}
	c.Recover(0)
	c.Recover(1)
	c.BeginDrain()
	if code, m := get(); code != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Fatalf("draining cluster: %d %v", code, m)
	}
}

func TestClusterAllDeadSheds(t *testing.T) {
	c := testCluster(t, 2, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	c.Kill(0)
	c.Kill(1)
	rec := postSim(c, routeBody(3))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead cluster returned %d, want 503", rec.Code)
	}
}

func TestClusterAdminEndpoints(t *testing.T) {
	c := testCluster(t, 2, Config{})
	do := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	if rec := do(http.MethodPost, "/v1/replicas/1/kill"); rec.Code != http.StatusOK {
		t.Fatalf("kill: %d %s", rec.Code, rec.Body)
	}
	if rec := do(http.MethodGet, "/v1/replicas"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"killed":true`) {
		t.Fatalf("replica list after kill: %d %s", rec.Code, rec.Body)
	}
	if rec := do(http.MethodPost, "/v1/replicas/1/recover"); rec.Code != http.StatusOK {
		t.Fatalf("recover: %d %s", rec.Code, rec.Body)
	}
	if rec := do(http.MethodPost, "/v1/replicas/9/kill"); rec.Code != http.StatusNotFound {
		t.Fatalf("bad replica id: %d", rec.Code)
	}
	if rec := do(http.MethodGet, "/v1/replicas/1/kill"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET kill: %d", rec.Code)
	}
}

func TestClusterForwardsExperimentList(t *testing.T) {
	c := testCluster(t, 2, Config{})
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/experiments", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "fig14") {
		t.Fatalf("experiment list: %d %s", rec.Code, rec.Body)
	}
}

// TestClusterMetricsShowReplicaSeries: the router's /metrics carries
// each replica's own series under its replica label — the cache
// counters and the request latency summaries of a miss and a hit — and
// the body index counters of replica 0, whose index the router reads.
func TestClusterMetricsShowReplicaSeries(t *testing.T) {
	c := testCluster(t, 2, Config{})
	var id string
	for range 2 {
		rec := postSim(c, routeBody(7))
		if rec.Code != http.StatusOK {
			t.Fatalf("simulate: %d %s", rec.Code, rec.Body)
		}
		id = rec.Header().Get("X-Replica")
	}
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`beaconserved_cache_misses_total{replica="` + id + `"} 1`,
		`beaconserved_cache_hits_total{replica="` + id + `"} 1`,
		`beaconserved_request_seconds_count{endpoint="simulate",cache="miss",replica="` + id + `"} 1`,
		`beaconserved_request_seconds_count{endpoint="simulate",cache="hit",replica="` + id + `"} 1`,
		`beaconserved_replica_requests_total{replica="` + id + `"} 2`,
		`beaconserved_body_index_misses_total{replica="0"} 1`,
		`beaconserved_body_index_hits_total{replica="0"} 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "\nbeaconserved_cache_hits_total ") {
		t.Errorf("/metrics has an unlabeled replica series:\n%s", body)
	}
}
