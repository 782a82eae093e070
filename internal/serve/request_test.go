package serve

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBodyTrailingDataAndLimit pins the error text for bodies that hold
// more than one JSON object: only white space may follow the object,
// and a body is at most maxBody bytes, read whole rather than cut short.
// Both endpoints share the rule.
func TestBodyTrailingDataAndLimit(t *testing.T) {
	const (
		sim      = `{"platform":"CC","dataset":"amazon"}`
		expt     = `{"id":"fig14"}`
		trailing = "bad request body: trailing data after the JSON object"
		tooLarge = "bad request body: larger than 1048576 bytes"
	)
	pad := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	s := New(Config{Workers: 1})
	for _, tc := range []struct {
		name, body, want string // want "" accepts the body
	}{
		{"brace", sim + "}", trailing},
		{"bracket", sim + "]", trailing},
		{"spaced brace", sim + " }", trailing},
		{"letter", sim + "x", trailing},
		{"second object", sim + " {}", trailing},
		{"comma", sim + ",", trailing},
		{"white space", sim + " \t\r\n", ""},
		{"at the limit", pad(sim, maxBody), ""},
		{"over the limit", pad(sim, maxBody+1), tooLarge},
		{"garbage past the limit", pad(sim, maxBody) + "garbage", tooLarge},
		{"experiment brace", expt + "}", trailing},
		{"experiment bracket", expt + "]", trailing},
		{"experiment over the limit", pad(expt, maxBody+1), tooLarge},
	} {
		var err error
		if strings.HasPrefix(tc.name, "experiment") {
			_, err = s.decodeExp(strings.NewReader(tc.body))
		} else {
			_, err = s.decodeSim(strings.NewReader(tc.body))
		}
		got := ""
		if err != nil {
			checkRejection(t, err)
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, got, tc.want)
		}
	}
}

// countDecodes makes the package's strict decode count its calls for
// the rest of t.
func countDecodes(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	decode := decodeJSON
	t.Cleanup(func() { decodeJSON = decode })
	decodeJSON = func(body []byte, v any) error {
		n.Add(1)
		return decode(body, v)
	}
	return &n
}

func TestBodyIndexSkipsRejectedBodies(t *testing.T) {
	s := New(Config{Workers: 1})
	decodes := countDecodes(t)
	for _, body := range []string{`{"platform":"BG-2","dataset":"nope"}`, `{"platform":`} {
		_, first := s.decodeSim(strings.NewReader(body))
		_, second := s.decodeSim(strings.NewReader(body))
		if first == nil || second == nil || first.Error() != second.Error() {
			t.Errorf("%s: rejections %v then %v", body, first, second)
		}
	}
	if decodes.Load() != 4 || s.bodies.Len() != 0 {
		t.Errorf("%d decodes and %d indexed bodies, want 4 and 0", decodes.Load(), s.bodies.Len())
	}
}

// TestBodyIndexRespelledBodyHitsMemo: a spelling of a resident key that
// the index has not seen is decoded once and answered from the memo;
// its repeat is answered without a decode.
func TestBodyIndexRespelledBodyHitsMemo(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	decodes := countDecodes(t)
	body := routeBody(3)
	respelled := strings.Replace(body, `"batches":1`, `"batches":1,"timeout_ms":5000`, 1)
	for _, tc := range []struct {
		body, cache string
		decodes     int64
	}{
		{body, "miss", 1},
		{respelled, "hit", 2},
		{respelled, "hit", 2},
	} {
		w := post(t, s, "/v1/simulate", tc.body)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != tc.cache || decodes.Load() != tc.decodes {
			t.Fatalf("%s: code %d X-Cache %q after %d decodes, want 200 %q after %d",
				tc.body, w.Code, w.Header().Get("X-Cache"), decodes.Load(), tc.cache, tc.decodes)
		}
	}
}

// TestBodyIndexEvictsPastCacheResults: the index holds at most
// CacheResults bodies, least recently used out first.
func TestBodyIndexEvictsPastCacheResults(t *testing.T) {
	s := New(Config{Workers: 1, CacheResults: 2})
	decodes := countDecodes(t)
	for seed := 0; seed < 3; seed++ {
		if _, err := s.decodeSim(strings.NewReader(routeBody(seed))); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.bodies.Len(); n != 2 {
		t.Fatalf("%d indexed bodies, want 2", n)
	}
	if _, err := s.decodeSim(strings.NewReader(routeBody(2))); err != nil || decodes.Load() != 3 {
		t.Fatalf("resident body: err %v after %d decodes, want 3", err, decodes.Load())
	}
	if _, err := s.decodeSim(strings.NewReader(routeBody(0))); err != nil || decodes.Load() != 4 {
		t.Fatalf("evicted body: err %v after %d decodes, want 4", err, decodes.Load())
	}
}

// TestBodyIndexConcurrentRepliesMatchSerial: 8 goroutines posting the
// same 4 bodies at once to a fresh server, so they decode, index and
// look up each body together, get the replies a serial run gets, byte
// for byte once wall_ms is masked.
func TestBodyIndexConcurrentRepliesMatchSerial(t *testing.T) {
	wall := regexp.MustCompile(`"wall_ms":[^,]*`)
	reply := func(w *httptest.ResponseRecorder) string {
		return w.Header().Get("X-Cache") + " " + wall.ReplaceAllString(w.Body.String(), `"wall_ms":0`)
	}
	var bodies []string
	for seed := 0; seed < 4; seed++ {
		bodies = append(bodies, routeBody(seed))
	}
	serial := newTestServer(t, Config{Workers: 2})
	want := map[string]bool{}
	for _, body := range bodies {
		for range 2 { // a miss, then a hit
			w := post(t, serial, "/v1/simulate", body)
			want[body+"\n"+reply(w)] = true
		}
	}

	s := newTestServer(t, Config{Workers: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, body := range bodies {
				w := post(t, s, "/v1/simulate", body)
				if got := reply(w); w.Code != http.StatusOK || !want[body+"\n"+got] {
					t.Errorf("%s: code %d, reply not in the serial run: %.200s", body, w.Code, got)
				}
			}
		}()
	}
	wg.Wait()
}

// TestBodyIndexMetrics reads the index's counters off /metrics after a
// miss, a repeat and a respelling of one key.
func TestBodyIndexMetrics(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := routeBody(1)
	for _, b := range []string{body, body, " " + body} {
		if w := post(t, s, "/v1/simulate", b); w.Code != http.StatusOK {
			t.Fatalf("simulate: %d %s", w.Code, w.Body)
		}
	}
	metrics := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"beaconserved_body_index_hits_total 1\n",
		"beaconserved_body_index_misses_total 2\n",
		"beaconserved_cache_hits_total 2\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
}
