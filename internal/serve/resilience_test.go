package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beacongnn/internal/chaos"
)

// chaosConfig arms deterministic engine faults: every run past the
// grace period fails transiently.
func chaosConfig(failRate float64, failAfter uint64) chaos.Config {
	return chaos.Config{
		Seed:            7,
		EngineFailRate:  failRate,
		EngineFailAfter: failAfter,
	}
}

// TestDegradedModeEndToEnd walks the full resilience arc: prime a
// last-known-good result, break the engine, watch the breaker trip and
// the server degrade to stale 200s instead of 500s, then heal the
// engine and watch a half-open probe close the circuit.
func TestDegradedModeEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:          2,
		MaxAttempts:      1, // no retries: the first transient failure surfaces
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
		Chaos:            chaosConfig(1, 1), // run 1 immune, everything after fails
	})

	// Prime: the grace period lets the first simulation through, which
	// both fills the memo and seeds the stale cache for the family.
	w := post(t, s, "/v1/simulate", simBody("BG-2", ""))
	if w.Code != http.StatusOK || w.Header().Get("X-Degraded") != "" {
		t.Fatalf("prime: code %d degraded %q", w.Code, w.Header().Get("X-Degraded"))
	}

	// A different key in the same family now hits the armed injector:
	// transient failure, breaker (threshold 1) trips, and the response
	// is the stale prime — 200 + X-Degraded, not a 5xx.
	w = post(t, s, "/v1/simulate", simBody("BG-2", `"seed":2`))
	if w.Code != http.StatusOK {
		t.Fatalf("during outage: code %d body %.300s, want degraded 200", w.Code, w.Body)
	}
	if w.Header().Get("X-Degraded") != "true" || w.Header().Get("X-Cache") != "stale" {
		t.Fatalf("degraded headers missing: X-Degraded=%q X-Cache=%q",
			w.Header().Get("X-Degraded"), w.Header().Get("X-Cache"))
	}
	if warn := w.Header().Get("Warning"); !strings.Contains(warn, "110") || !strings.Contains(warn, "stale") {
		t.Fatalf("Warning header %q, want 110 stale marking", warn)
	}
	var resp SimResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || !resp.Cached || resp.Result == nil {
		t.Fatalf("degraded body: degraded=%v cached=%v result=%v", resp.Degraded, resp.Cached, resp.Result != nil)
	}

	// While open, requests are refused at the door and served stale
	// without touching the engine.
	runsBefore, _ := s.Engine().Stats()
	w = post(t, s, "/v1/simulate", simBody("BG-2", `"seed":3`))
	if w.Code != http.StatusOK || w.Header().Get("X-Degraded") != "true" {
		t.Fatalf("open-circuit request: code %d degraded %q", w.Code, w.Header().Get("X-Degraded"))
	}
	if runsAfter, _ := s.Engine().Stats(); runsAfter != runsBefore {
		t.Fatal("open breaker still dispatched a simulation")
	}

	// Heal: disarm the injector, wait out the cooldown, and the next
	// request is the half-open probe — it succeeds fresh and closes the
	// circuit for everyone after it.
	s.Injector().Disarm()
	time.Sleep(40 * time.Millisecond)
	w = post(t, s, "/v1/simulate", simBody("BG-2", `"seed":2`))
	if w.Code != http.StatusOK || w.Header().Get("X-Degraded") != "" {
		t.Fatalf("probe after heal: code %d degraded %q body %.200s", w.Code, w.Header().Get("X-Degraded"), w.Body)
	}
	w = post(t, s, "/v1/simulate", simBody("BG-2", `"seed":4`))
	if w.Code != http.StatusOK || w.Header().Get("X-Degraded") != "" {
		t.Fatalf("post-recovery request: code %d degraded %q", w.Code, w.Header().Get("X-Degraded"))
	}

	// The metrics surface recorded the arc.
	m := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"beaconserved_degraded_total",
		`beaconserved_breaker_state{platform="BG-2",dataset="amazon"} 0`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDegradedWithoutStaleIs503: an open circuit with nothing to serve
// sheds with 503 + Retry-After instead of inventing a result.
func TestDegradedWithoutStaleIs503(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:          2,
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Chaos:            chaosConfig(1, 0), // no grace: every run fails
	})
	w := post(t, s, "/v1/simulate", simBody("BG-2", ""))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d body %.300s, want 503", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("degraded 503 without Retry-After")
	}
	if !strings.Contains(w.Body.String(), "no stale result") {
		t.Fatalf("body %.300s does not explain the missing stale result", w.Body)
	}
}

// TestRetriesRecoverTransientFaults: with the budget and attempts to
// spare, a transiently failing run is retried to success inside one
// request — the client never sees the fault.
func TestRetriesRecoverTransientFaults(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:          2,
		MaxAttempts:      3,
		RetryBackoffBase: time.Millisecond,
		RetryBackoffMax:  4 * time.Millisecond,
		BreakerThreshold: 10, // stay closed through the retries
		Chaos: chaos.Config{
			Seed:            7,
			EngineFailRate:  0.5,
			EngineFailAfter: 0,
		},
	})
	// Drive distinct keys; each request retries internally as its draws
	// dictate. With rate 0.5 and 3 attempts, P(all fail) per key is
	// 12.5% — some may still fail, but most must succeed, and every
	// failure must be a 5xx-free degraded/503, never a raw 500 with the
	// breaker open.
	ok := 0
	for i := 0; i < 6; i++ {
		w := post(t, s, "/v1/simulate", simBody("BG-2", `"seed":`+strconv.Itoa(i+1)))
		if w.Code == http.StatusOK && w.Header().Get("X-Degraded") == "" {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no request survived a 50% transient fault rate with 3 attempts")
	}
	m := get(t, s, "/metrics").Body.String()
	if !strings.Contains(m, "beaconserved_retries_total") {
		t.Error("retries left no metric trace")
	}
}

// TestChaosHammerNoPoisonNo500 is the -race drill: concurrent clients
// against an armed injector with a flapping breaker. Laws: no request
// ever sees a raw 500 (degraded mode absorbs transient exhaustion),
// and after disarming, every key simulates cleanly — transient
// failures never poisoned the memo.
func TestChaosHammerNoPoisonNo500(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:          4,
		MaxAttempts:      2,
		RetryBackoffBase: time.Millisecond,
		RetryBackoffMax:  2 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  5 * time.Millisecond,
		HedgeAfter:       20 * time.Millisecond,
		Chaos:            chaosConfig(0.5, 1),
	})
	// Prime the stale cache so degraded mode always has an answer.
	if w := post(t, s, "/v1/simulate", simBody("BG-2", "")); w.Code != http.StatusOK {
		t.Fatalf("prime failed: %d %.200s", w.Code, w.Body)
	}

	const clients = 16
	var codes [clients]int
	var wg sync.WaitGroup
	var raw500 atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, "/v1/simulate", simBody("BG-2", `"seed":`+strconv.Itoa(i%4+1)))
			codes[i] = w.Code
			switch w.Code {
			case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			case http.StatusInternalServerError:
				raw500.Add(1)
				t.Errorf("client %d got a raw 500: %.200s", i, w.Body)
			default:
				t.Errorf("client %d got unexpected code %d: %.200s", i, w.Code, w.Body)
			}
		}(i)
	}
	wg.Wait()
	if raw500.Load() > 0 {
		t.Fatalf("%d raw 500s leaked through degraded mode", raw500.Load())
	}

	// Heal and verify no key was poisoned: every seed now serves fresh.
	s.Injector().Disarm()
	time.Sleep(10 * time.Millisecond) // let the cooldown lapse for a probe
	for seed := 1; seed <= 4; seed++ {
		var w = post(t, s, "/v1/simulate", simBody("BG-2", `"seed":`+strconv.Itoa(seed)))
		if w.Code != http.StatusOK || w.Header().Get("X-Degraded") != "" {
			t.Fatalf("seed %d after heal: code %d degraded %q body %.200s (memo poisoned?)",
				seed, w.Code, w.Header().Get("X-Degraded"), w.Body)
		}
	}
}

// TestRetryAfterCeilingClamps pins satellite 2: a pathological miss
// median must not tell clients to come back in ten minutes.
func TestRetryAfterCeilingClamps(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RetryAfterCeiling: 5 * time.Second})
	s.reg.Summary(simulateMissSummary).Observe(10 * time.Minute)
	if !s.adm.tryAcquire() {
		t.Fatal("could not acquire admission slot")
	}
	defer s.adm.release()
	if got := s.retryAfterSeconds(); got != 5 {
		t.Fatalf("retryAfterSeconds = %d, want ceiling 5", got)
	}
	// Floor stays 1s with no history.
	s2 := newTestServer(t, Config{Workers: 1, RetryAfterCeiling: 5 * time.Second})
	if got := s2.retryAfterSeconds(); got < 1 {
		t.Fatalf("retryAfterSeconds = %d, want >= 1", got)
	}
}

// TestCancelInflightAbortsStragglers pins satellite 3: the drain hard
// deadline cancels in-flight requests through their per-request
// contexts, and the straggler's response is a drain 503, not a 500.
func TestCancelInflightAbortsStragglers(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	done := make(chan int, 1)
	go func() {
		// Big enough to be comfortably in flight when the cancel lands.
		w := post(t, s, "/v1/simulate", `{"platform":"BG-2","dataset":"amazon","nodes":20000,"batches":24}`)
		done <- w.Code
	}()
	// Wait until the request is tracked (it registers before simulating).
	deadline := time.After(10 * time.Second)
	for s.inflight.len() == 0 {
		select {
		case <-deadline:
			t.Fatal("request never registered as in-flight")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	s.BeginDrain()
	if n := s.CancelInflight(); n != 1 {
		t.Fatalf("CancelInflight = %d, want 1", n)
	}
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("cancelled straggler got %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request did not return promptly")
	}
	if s.inflight.len() != 0 {
		t.Fatalf("inflight set not empty after drain: %d", s.inflight.len())
	}
}

// TestChaosHTTPBoundary exercises the middleware injections end to
// end: drops return marked 503s, and truncation cuts the body.
func TestChaosHTTPBoundary(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2,
		Chaos: chaos.Config{
			Seed:         3,
			HTTPDropRate: 1,
		},
	})
	w := get(t, s, "/healthz")
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("X-Chaos-Injected") != "drop" {
		t.Fatalf("drop injection: code %d header %q", w.Code, w.Header().Get("X-Chaos-Injected"))
	}
	s.Injector().Disarm()
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("disarmed injector still dropping: %d", w.Code)
	}

	st := newTestServer(t, Config{
		Workers: 2,
		Chaos: chaos.Config{
			Seed:          3,
			HTTPTruncRate: 1,
		},
	})
	w = get(t, st, "/v1/experiments")
	if w.Header().Get("X-Chaos-Injected") != "truncate" {
		t.Fatalf("truncation not marked: %q", w.Header().Get("X-Chaos-Injected"))
	}
	if w.Body.Len() > 64 {
		t.Fatalf("truncated body still %d bytes", w.Body.Len())
	}
	var v any
	if err := json.Unmarshal(w.Body.Bytes(), &v); err == nil {
		t.Fatal("truncated body still parsed as JSON; truncation is not observable")
	}
}

// TestChaosDisabledIsFreeAndIdentical: with the zero chaos config the
// server has no injector, no middleware wrapper, and responses carry
// none of the resilience surface (no Degraded field bytes).
func TestChaosDisabledIsFreeAndIdentical(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	if s.Injector() != nil {
		t.Fatal("disabled chaos still built an injector")
	}
	if s.handler != s.mux {
		t.Fatal("disabled chaos still wrapped the mux")
	}
	w := post(t, s, "/v1/simulate", simBody("BG-2", ""))
	if w.Code != http.StatusOK {
		t.Fatalf("simulate: %d", w.Code)
	}
	if strings.Contains(w.Body.String(), "degraded") {
		t.Fatal("healthy response leaked the degraded field (omitempty broken)")
	}
	for _, h := range []string{"X-Degraded", "X-Chaos-Injected", "Warning"} {
		if w.Header().Get(h) != "" {
			t.Fatalf("healthy response carries %s", h)
		}
	}
}
