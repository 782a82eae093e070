package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// benchClient sends simulate requests through one handler, reusing a
// parsed request and one ResponseWriter across ops, so an op times the
// server rather than request parsing and the growth of a fresh
// recorder's buffer to the ~35 KB reply.
type benchClient struct {
	s    http.Handler
	tmpl *http.Request
	body strings.Reader
	w    benchWriter
}

type benchWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *benchWriter) Header() http.Header { return w.h }

func (w *benchWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *benchWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func newBenchClient(s http.Handler) *benchClient {
	return &benchClient{
		s:    s,
		tmpl: httptest.NewRequest(http.MethodPost, "/v1/simulate", nil),
		w:    benchWriter{h: make(http.Header)},
	}
}

// post drives one request through the full handler stack — decode,
// validation, admission, engine, reply — exactly as an HTTP client
// would, minus the network, and fails b unless the reply is a 200 with
// the given X-Cache outcome.
func (c *benchClient) post(b *testing.B, body, cache string) {
	clear(c.w.h)
	c.w.code = 0
	c.w.body.Reset()
	c.body.Reset(body)
	r := *c.tmpl
	r.Body = io.NopCloser(&c.body)
	r.ContentLength = int64(len(body))
	c.s.ServeHTTP(&c.w, &r)
	if c.w.code != http.StatusOK {
		b.Fatalf("status %d: %s", c.w.code, c.w.body.Bytes())
	}
	if got := c.w.h.Get("X-Cache"); cache != "" && got != cache {
		b.Fatalf("X-Cache %q, want %q", got, cache)
	}
}

// BenchmarkRequestPath measures one simulate request end to end through
// the serving layer, in both regimes that matter for a daemon:
//
//   - cold: every request has a distinct config digest (a different
//     read-latency override), so each op pays a full simulation on a
//     warm dataset instance — the request path's allocation budget is
//     on top of the simulation itself;
//   - memo-hit: the same request repeatedly, so each op is the body
//     index lookup + memo lookup + envelope write around the entry's
//     stored encoding. This is the latency a client sees for a repeated
//     query and must stay microseconds;
//   - memo-hit-decode: memo-hit with a timeout_ms that steps through
//     [1, 600000], so each body is new to the body index and pays the
//     strict decode and validation, while the key (which leaves the
//     timeout out) stays resident;
//   - cluster-hit: memo-hit through a 2-replica Cluster, so each op
//     adds the router's placement and forwarding to the same work.
func BenchmarkRequestPath(b *testing.B) {
	c := newBenchClient(New(Config{Workers: 1, MaxNodes: 50_000}))
	base := `{"platform":"BG-2","dataset":"amazon","nodes":2000,"batches":2`

	// Warm the instance cache so cold ops measure simulation + request
	// path, not dataset materialization.
	c.post(b, base+`}`, "")

	// Monotonic across the benchmark's b.N calibration rounds — the same
	// i must never produce the same config digest twice.
	latency := 3000
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A unique flash read latency per op forces a config-digest
			// miss while reusing the materialized instance.
			latency++
			body := fmt.Sprintf(`%s,"read_latency_ns":%d}`, base, latency)
			c.post(b, body, "miss")
		}
	})

	b.Run("memo-hit", func(b *testing.B) {
		body := base + `}`
		c.post(b, body, "") // ensure the key is resident
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.post(b, body, "hit")
		}
	})

	// Like latency, monotonic across calibration rounds, so no round
	// finds the previous round's bodies in the index.
	timeout := 0
	b.Run("memo-hit-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			timeout = timeout%600_000 + 1
			c.post(b, fmt.Sprintf(`%s,"timeout_ms":%d}`, base, timeout), "hit")
		}
	})

	cluster := newBenchClient(NewCluster(2, Config{Workers: 2, MaxNodes: 50_000}))
	b.Run("cluster-hit", func(b *testing.B) {
		body := base + `}`
		cluster.post(b, body, "") // materialize and make the key resident on its replica
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cluster.post(b, body, "hit")
		}
	})
}
