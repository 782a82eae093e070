package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"beacongnn/internal/serve"
)

// recorder is a reusable in-process http.ResponseWriter: the benchmark
// drives serve.Server.ServeHTTP directly, with no listener, so loopback
// TCP and its scheduling noise are not part of any measurement.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// client is the benchmark's single closed-loop client: it sends the next
// request only after ServeHTTP has returned the previous reply.
type client struct {
	srv  *serve.Server
	tmpl *http.Request
	w    recorder
}

func newClient(srv *serve.Server) *client {
	tmpl, err := http.NewRequest(http.MethodPost, "/v1/simulate", nil)
	if err != nil {
		panic(err) // constant method and URL
	}
	tmpl.Header.Set("Content-Type", "application/json")
	return &client{srv: srv, tmpl: tmpl, w: recorder{h: make(http.Header)}}
}

// post sends one simulate request and returns the reply, valid until the
// next post.
func (c *client) post(body []byte) *recorder {
	clear(c.w.h)
	c.w.code = 0
	c.w.body.Reset()
	r := *c.tmpl
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	c.srv.ServeHTTP(&c.w, &r)
	return &c.w
}

// check verifies one reply: status 200, the X-Cache outcome the workload
// predicts, and a body that starts with want.
func (w *recorder) check(cache string, want []byte) error {
	if w.code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", w.code, w.body.Bytes())
	}
	if got := w.h.Get("X-Cache"); got != cache {
		return fmt.Errorf("X-Cache %q, want %q", got, cache)
	}
	if !bytes.HasPrefix(w.body.Bytes(), want) {
		return fmt.Errorf("body starts %.120q, want %q", w.body.Bytes(), want)
	}
	return nil
}

// respPrefix is the fixed head of a successful SimResponse for op, up to
// the wall_ms field.
func respPrefix(op simOp, cached bool) []byte {
	return fmt.Appendf(nil, `{"platform":%q,"dataset":%q,"nodes":%d,"batches":%d,"cached":%t,"wall_ms":`,
		op.Platform, op.Dataset, op.Nodes, op.Batches, cached)
}

// resultField returns the "result" member of a SimResponse body: the
// bytes after wall_ms, which vary only with the simulation.
func resultField(body []byte) []byte {
	const marker = `,"result":`
	i := bytes.Index(body, []byte(marker))
	if i < 0 {
		return nil
	}
	return bytes.TrimSuffix(body[i+len(marker):], []byte("}\n"))
}

// timing is what one timed phase measured.
type timing struct {
	lat     []time.Duration // per-op wall latency, in op order
	failed  int
	cpu     time.Duration   // process user+sys over the ops
	mallocs uint64          // heap allocations over the phase
	bytes   uint64          // heap bytes allocated over the phase
	gcs     uint32          // completed GC cycles over the phase
	kernel  []time.Duration // reference-kernel samples between the ops
}

// timePhase runs n ops back to back. CPU time and allocations are read
// around stretches of ops, never per op: a sub-millisecond op is
// shorter than the OS's CPU accounting tick. With k set, the
// reference kernel runs before the first op, after every sampleEvery of
// op time and after the last op; its CPU time is left out of t.cpu.
func timePhase(n int, op func(i int) error, k *speedKernel) timing {
	runtime.GC()
	t := timing{lat: make([]time.Duration, n), kernel: make([]time.Duration, 0, n+1)}
	sample := func() {
		if k != nil {
			t.kernel = append(t.kernel, k.run())
		}
	}
	sample()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	var sinceSample time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		err := op(i)
		t.lat[i] = time.Since(start)
		if err != nil {
			t.failed++
			if t.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			}
		}
		if sinceSample += t.lat[i]; k != nil && sinceSample >= sampleEvery && i < n-1 {
			t.cpu += cpuTime() - cpu0
			sample()
			cpu0, sinceSample = cpuTime(), 0
		}
	}
	t.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	sample()
	t.mallocs = ms1.Mallocs - ms0.Mallocs
	t.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	t.gcs = ms1.NumGC - ms0.NumGC
	return t
}

// add folds another phase's measurements into t.
func (t *timing) add(o timing) {
	t.lat = append(t.lat, o.lat...)
	t.failed += o.failed
	t.cpu += o.cpu
	t.mallocs += o.mallocs
	t.bytes += o.bytes
	t.gcs += o.gcs
	t.kernel = append(t.kernel, o.kernel...)
}

// scaled returns t with its times multiplied by s.
func (t timing) scaled(s float64) timing {
	t.lat = slices.Clone(t.lat)
	for i, d := range t.lat {
		t.lat[i] = time.Duration(float64(d) * s)
	}
	t.cpu = time.Duration(float64(t.cpu) * s)
	return t
}

// measure runs n ops in rounds. Each round builds its own state with
// setup, timed, then times its equal share of the ops on that state. A
// fresh state per round averages out what one build's memory layout
// does to op timings: on the reference box the median latency of the
// same ops moved by up to 15% from one build to the next, while staying
// within 2% inside one build. Every time a round measures is brought to
// the reference host speed with the kernel samples taken between its
// ops (see speed.go); setup_s is the median over rounds.
func measure[S any](rounds, n int, setup func() (S, error), op func(st S, i int) error) (float64, timing, error) {
	k, err := newSpeedKernel()
	if err != nil {
		return 0, timing{}, err
	}
	var all, raw timing
	secs := make([]float64, rounds)
	rawSecs := make([]float64, rounds)
	for r := range secs {
		runtime.GC()
		start := time.Now()
		st, err := setup()
		if err != nil {
			return 0, all, err
		}
		rawSecs[r] = time.Since(start).Seconds()
		lo, hi := r*n/rounds, (r+1)*n/rounds
		t := timePhase(hi-lo, func(i int) error { return op(st, lo+i) }, k)
		s := speedScale(t.kernel)
		secs[r] = rawSecs[r] * s
		all.add(t.scaled(s))
		raw.add(t)
	}
	fmt.Fprintf(os.Stderr, "perfbench: reference kernel median %.2f ms against %v, times scaled by %.3f; unscaled setup_s %.4g lat_p50_ms %.4g lat_p90_ms %.4g cpu_ms_per_op %.4g\n",
		median(millis(all.kernel)), refKernel, speedScale(all.kernel), median(rawSecs),
		quantile(millis(raw.lat), 0.5), quantile(millis(raw.lat), 0.9), float64(raw.cpu.Nanoseconds())/1e6/float64(len(raw.lat)))
	return median(secs), all, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (ru_maxrss is in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	// The epsilon keeps q*n from rounding up past an exact rank.
	rank := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	return s[max(rank, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}
