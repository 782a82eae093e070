package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beacongnn/internal/sim"
)

// Registry is the wall-clock instrumentation side of this package: where
// Collector measures one simulated run from the inside, Registry
// measures the serving process itself — request counters, queue gauges,
// handler latency summaries — and renders everything in the Prometheus
// text exposition format for a /metrics endpoint. All methods are safe
// for concurrent use; instruments are get-or-create by name, so handler
// code can call Counter(...) inline without registration ceremony.
//
// Metric names follow prometheus conventions (snake_case, _total suffix
// on counters, base-unit _seconds on durations). A name may carry a
// label set inline — Counter(`http_responses_total{code="200"}`) — and
// series sharing a base name are folded under one # TYPE header.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	gaugeFns  map[string]func() float64
	summaries map[string]*Summary
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		gaugeFns:  make(map[string]func() float64),
		summaries: make(map[string]*Summary),
	}
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 (queue depths, in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds delta (negative to decrement) and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Summary is a concurrency-safe duration distribution exposed as a
// Prometheus summary (quantiles + _sum + _count). It reuses the
// log-bucket Histogram, so quantiles are ±15 % bucket-resolution
// estimates bounded by the exact min/max. Observations are bucketed in
// microseconds — the histogram's log-1.15 buckets then span ~1 µs to
// ~4.5 days, far past any HTTP handler latency — while the sum stays
// exact.
type Summary struct {
	mu  sync.Mutex
	h   Histogram // microsecond-valued observations
	sum time.Duration
}

// Observe records one duration.
func (s *Summary) Observe(d time.Duration) {
	s.mu.Lock()
	s.h.Observe(sim.Time(d.Microseconds()))
	s.sum += d
	s.mu.Unlock()
}

// Snapshot returns count, sum and the given quantiles.
func (s *Summary) Snapshot(qs ...float64) (count uint64, sum time.Duration, quantiles []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	quantiles = make([]time.Duration, len(qs))
	for i, q := range qs {
		quantiles[i] = time.Duration(s.h.Quantile(q)) * time.Microsecond
	}
	return s.h.Count(), s.sum, quantiles
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is sampled at scrape time —
// for values another subsystem already tracks (cache sizes, engine run
// counts, uptime). Re-registering a name replaces its function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Summary returns (creating if needed) the named summary.
func (r *Registry) Summary(name string) *Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.summaries[name]
	if !ok {
		s = &Summary{}
		r.summaries[name] = s
	}
	return s
}

// baseName strips an inline label set: `a_total{code="200"}` → a_total.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labeled splits an inline label set off a metric name so extra labels
// (quantile) can be merged in: `a{b="c"}` → "a", `b="c"`.
func labeled(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// summaryQuantiles are the quantiles every summary exposes.
var summaryQuantiles = []float64{0.5, 0.95, 0.99}

// WriteText renders every instrument in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered: series are sorted
// by name, and a # TYPE header is emitted once per base name.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	counters := sortedKeys(r.counters)
	gauges := sortedKeys(r.gauges)
	gaugeFns := sortedKeys(r.gaugeFns)
	summaries := sortedKeys(r.summaries)
	r.mu.Unlock()

	var b strings.Builder
	typed := make(map[string]bool)
	header := func(name, typ string) {
		base := baseName(name)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, typ)
		}
	}
	for _, name := range counters {
		header(name, "counter")
		fmt.Fprintf(&b, "%s %d\n", name, r.Counter(name).Value())
	}
	for _, name := range gauges {
		header(name, "gauge")
		fmt.Fprintf(&b, "%s %d\n", name, r.Gauge(name).Value())
	}
	for _, name := range gaugeFns {
		r.mu.Lock()
		fn := r.gaugeFns[name]
		r.mu.Unlock()
		header(name, "gauge")
		fmt.Fprintf(&b, "%s %g\n", name, fn())
	}
	for _, name := range summaries {
		count, sum, qs := r.Summary(name).Snapshot(summaryQuantiles...)
		header(name, "summary")
		base, lbl := labeled(name)
		for i, q := range summaryQuantiles {
			sep := ""
			if lbl != "" {
				sep = ","
			}
			fmt.Fprintf(&b, "%s{%s%squantile=\"%g\"} %g\n", base, lbl, sep, q, qs[i].Seconds())
		}
		suffix := ""
		if lbl != "" {
			suffix = "{" + lbl + "}"
		}
		fmt.Fprintf(&b, "%s_sum%s %g\n", base, suffix, sum.Seconds())
		fmt.Fprintf(&b, "%s_count%s %d\n", base, suffix, count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
