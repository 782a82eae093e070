package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/exp"
	"beacongnn/internal/platform"
)

// encoderBody is what json.Encoder, configured as the server's
// writeJSON configures it, writes for r.
func encoderBody(t testing.TB, r SimResponse) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSplicedBodyMatchesEncoder checks that a miss, a hit and a degraded
// answer — each written as a hand-made envelope around stored result
// bytes — are byte-identical to json.Encoder's output for the same
// SimResponse field values, with the result computed directly.
func TestSplicedBodyMatchesEncoder(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:          1,
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Chaos:            chaosConfig(1, 1), // the first run succeeds, every later one fails
	})
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

	for _, tc := range []struct {
		name, body, cache string
		degraded          bool
	}{
		{"miss", simBody("BG-2", ""), "miss", false},
		{"hit", simBody("BG-2", ""), "hit", false},
		// A new key fails, trips the breaker and is answered with the
		// family's stale result: the first request's.
		{"degraded", simBody("BG-2", `"seed":2`), "stale", true},
	} {
		w := post(t, s, "/v1/simulate", tc.body)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != tc.cache {
			t.Fatalf("%s: code %d X-Cache %q, want 200 %q: %.200s", tc.name, w.Code, w.Header().Get("X-Cache"), tc.cache, w.Body)
		}
		var got struct {
			WallMS float64 `json:"wall_ms"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := encoderBody(t, SimResponse{
			Platform: direct.Platform,
			Dataset:  direct.Dataset,
			Nodes:    testNodes,
			Batches:  2,
			Cached:   tc.cache != "miss",
			Degraded: tc.degraded,
			WallMS:   got.WallMS,
			Result:   direct,
		})
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("%s: spliced body differs from the encoder's:\nserved:  %.300s\nencoder: %.300s", tc.name, w.Body, want)
		}
	}
}

// healthCounts reads sim_runs and memo_hits from /healthz.
func healthCounts(t *testing.T, s http.Handler) (runs, hits uint64) {
	t.Helper()
	var h healthzResponse
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	return h.SimRuns, h.MemoHits
}

// TestCacheLabelFollowsOneLookup checks the cache outcome of simulate
// requests against what the engine did: a miss runs through the retry
// machinery, a hit counts exactly one memo hit and no run, and a key
// evicted from the memo is a miss again — labelled and retried as one.
func TestCacheLabelFollowsOneLookup(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:          1,
		MaxAttempts:      2,
		RetryBackoffBase: time.Millisecond,
		RetryBackoffMax:  time.Millisecond,
		BreakerThreshold: 10,
	})
	// Every primary attempt fails transiently once; its retry succeeds.
	var attempts atomic.Int64
	s.Engine().SetFaultHook(func(exp.SimKey, int) error {
		if attempts.Add(1)%2 == 1 {
			return fmt.Errorf("injected: %w", exp.ErrTransient)
		}
		return nil
	})
	retries := func() string {
		for _, line := range strings.Split(get(t, s, "/metrics").Body.String(), "\n") {
			if strings.HasPrefix(line, "beaconserved_retries_total ") {
				return strings.TrimPrefix(line, "beaconserved_retries_total ")
			}
		}
		return "0"
	}
	body := simBody("BG-2", "")
	expect := func(step, cache string, dRuns, dHits uint64, wantRetries string) []byte {
		t.Helper()
		runs0, hits0 := healthCounts(t, s)
		w := post(t, s, "/v1/simulate", body)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != cache {
			t.Fatalf("%s: code %d X-Cache %q, want 200 %q: %.200s", step, w.Code, w.Header().Get("X-Cache"), cache, w.Body)
		}
		if want := `"cached":` + fmt.Sprint(cache == "hit"); !strings.Contains(w.Body.String(), want) {
			t.Fatalf("%s: body lacks %s", step, want)
		}
		runs1, hits1 := healthCounts(t, s)
		if runs1-runs0 != dRuns || hits1-hits0 != dHits {
			t.Fatalf("%s: sim_runs +%d memo_hits +%d, want +%d +%d", step, runs1-runs0, hits1-hits0, dRuns, dHits)
		}
		if got := retries(); got != wantRetries {
			t.Fatalf("%s: beaconserved_retries_total %s, want %s", step, got, wantRetries)
		}
		return resultField(w.Body.Bytes())
	}

	first := expect("miss", "miss", 1, 0, "1")
	if hit := expect("hit", "hit", 0, 1, "1"); !bytes.Equal(hit, first) {
		t.Fatal("hit served different result bytes")
	}
	if n := s.Engine().EvictOldest(1); n != 1 {
		t.Fatalf("evicted %d memo entries, want 1", n)
	}
	if again := expect("after eviction", "miss", 1, 0, "2"); !bytes.Equal(again, first) {
		t.Fatal("re-simulated miss served different result bytes")
	}
}

// resultField returns the bytes of a simulate body's "result" member.
func resultField(body []byte) []byte {
	var r struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil
	}
	return r.Result
}

// TestStoredResultsCapped checks that CacheResults caps the one store of
// simulation results: the engine memo keeps the newest CacheResults
// entries. EvictOldest reports how many it dropped, which, asked for
// more than the cap, is the resident count.
func TestStoredResultsCapped(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheResults: 2})
	for i := 1; i <= 4; i++ {
		if w := post(t, s, "/v1/simulate", simBody("BG-2", fmt.Sprintf(`"seed":%d`, i))); w.Code != http.StatusOK {
			t.Fatalf("seed %d: code %d %.200s", i, w.Code, w.Body)
		}
	}
	if n := s.Engine().EvictOldest(100); n != 2 {
		t.Fatalf("%d memo entries resident, want the cap of 2", n)
	}
}

// FuzzSimEnvelope checks the hand-written simulate envelope against
// json.Encoder over arbitrary member values: strings with control
// bytes, invalid UTF-8, U+2028/U+2029 and other non-ASCII runes; any
// ints; both flags; and every finite wall time from 0 through
// subnormal to the largest float64 (the encoder rejects NaN and ±Inf,
// and so never writes them). The seeds are the committed inputs in
// testdata/fuzz/FuzzSimEnvelope, which go test runs in file-name order.
func FuzzSimEnvelope(f *testing.F) {
	res := &platform.Result{Platform: "BG-2", Dataset: "amazon", Elapsed: 1}
	result, err := (&exp.Memo{Result: res}).JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, platformName, datasetName string, nodes, batches int, cached, degraded bool, wallMS float64) {
		if math.IsNaN(wallMS) || math.IsInf(wallMS, 0) {
			t.Skip("json.Encoder rejects non-finite floats")
		}
		got := appendSimHead(nil, simEnvelope{
			platform: platformName,
			dataset:  datasetName,
			nodes:    nodes,
			batches:  batches,
			cached:   cached,
			degraded: degraded,
			wallMS:   wallMS,
		})
		got = append(append(got, result...), simTail...)
		want := encoderBody(t, SimResponse{
			Platform: platformName,
			Dataset:  datasetName,
			Nodes:    nodes,
			Batches:  batches,
			Cached:   cached,
			Degraded: degraded,
			WallMS:   wallMS,
			Result:   res,
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("envelope differs from the encoder's:\ngot:  %q\nwant: %q", got, want)
		}
	})
}
