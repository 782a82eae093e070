package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"beacongnn/internal/metrics"
)

// runDrive is the live counterpart of -exp chaos: it fires requests at
// a running beaconserved (typically one started with -chaos-* flags)
// and reports what clients actually experienced — availability,
// degraded serves, shed load, and latency tails. Unlike the virtual
// sweep this measures wall clock against a real daemon, so numbers
// vary run to run; the virtual sweep is the deterministic record, this
// is the drill.
func runDrive(base string, requests, clients int, w io.Writer) error {
	base = strings.TrimRight(base, "/")
	type sample struct {
		class string // ok, degraded, shed, failed
		lat   time.Duration
	}
	// Cycle a handful of seeds within one (platform, dataset) family:
	// repeats exercise the memo while fresh seeds keep the engine (and
	// any armed chaos hooks) busy, and a single family means an open
	// breaker is observable as degraded serves, not hidden by others.
	body := func(i int) []byte {
		req := map[string]any{
			"platform": "BG-2",
			"dataset":  "amazon",
			"nodes":    2000,
			"batches":  2,
		}
		if seed := uint64(i % 8); seed > 0 {
			req["seed"] = seed
		}
		b, _ := json.Marshal(req)
		return b
	}

	samples := make([]sample, requests)
	var wg sync.WaitGroup
	next := make(chan int)
	client := &http.Client{Timeout: 5 * time.Minute}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/simulate", "application/json", bytes.NewReader(body(i)))
				s := sample{lat: time.Since(t0)}
				if err != nil {
					s.class = "failed"
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					s.lat = time.Since(t0)
					switch {
					case resp.StatusCode == http.StatusOK && resp.Header.Get("X-Degraded") == "true":
						s.class = "degraded"
					case resp.StatusCode == http.StatusOK:
						s.class = "ok"
					case resp.StatusCode == http.StatusTooManyRequests ||
						resp.StatusCode == http.StatusServiceUnavailable:
						s.class = "shed"
					default:
						s.class = "failed"
					}
				}
				samples[i] = s
			}
		}()
	}
	t0 := time.Now()
	for i := 0; i < requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(t0)

	counts := map[string]int{}
	var lats []time.Duration
	for _, s := range samples {
		counts[s.class]++
		if s.class == "ok" || s.class == "degraded" {
			lats = append(lats, s.lat)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[metrics.NearestRank(p, len(lats))-1]
	}
	avail := float64(counts["ok"]+counts["degraded"]) / float64(requests)
	fmt.Fprintf(w, "drove %s: %d requests, %d clients, %v elapsed\n", base, requests, clients, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  ok %d  degraded %d  shed %d  failed %d\n",
		counts["ok"], counts["degraded"], counts["shed"], counts["failed"])
	fmt.Fprintf(w, "  availability %.2f%%  goodput %.1f/s  served p50 %v  p99 %v\n",
		100*avail, float64(counts["ok"])/elapsed.Seconds(),
		q(0.5).Round(time.Microsecond), q(0.99).Round(time.Microsecond))
	if counts["failed"] > 0 {
		return fmt.Errorf("%d request(s) hard-failed", counts["failed"])
	}
	return nil
}
