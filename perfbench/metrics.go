package main

import (
	"beacongnn/internal/core"
	"beacongnn/internal/platform"
)

// metricSpec names one metric and its unit. endToEnd and perLayer are
// the benchmark's declared metric sets; BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatches keeps the two in step).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "allocs/op"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

// simResources are the contended resources platform.System.SetTracer
// attaches a tracer to (flash.retry is left out: it only fires with the
// fault model on, which no workload enables).
var simResources = []string{
	"flash.die", "flash.sampler", "flash.channel", "firmware.cores",
	"dram.port", "nvme.pcie", "host.cpu", "accel.queue",
}

// sharePhases are the simulated-time phases whose BG-2 shares the
// sentinel reports.
var sharePhases = []string{"host", "pcie", "firmware", "flash", "channel", "dram", "accel"}

// perLayer returns every per-layer metric a traced run reports. A layer
// that the workload's ops do not reach reads 0 (serve-hot runs no
// simulation, only eval runs the experiment runners). The simtime.*,
// sim.spans.* and platform.host_ns_per_span values come from the fixed
// sentinel every traced run ends with, so they do not vary by workload.
func perLayer() []metricSpec {
	out := []metricSpec{
		{"platform.run_ms", "ms"},
		{"platform.new_system_ms", "ms"},
		{"platform.host_ns_per_span", "ns"},
	}
	for _, r := range simResources {
		out = append(out, metricSpec{"sim.spans." + r, "count"})
	}
	out = append(out,
		metricSpec{"serve.request_ms", "ms"},
		metricSpec{"serve.self_ms", "ms"},
		metricSpec{"serve.encode_ms", "ms"},
		metricSpec{"serve.response_kb", "KB"},
		metricSpec{"serve.hit_ratio", "ratio"},
		metricSpec{"exp.runs", "count"},
		metricSpec{"exp.memo_hits", "count"},
		metricSpec{"exp.memo_hit_ratio", "ratio"},
		metricSpec{"exp.evictions", "count"},
		metricSpec{"graph.generate_ms", "ms"},
		metricSpec{"directgraph.build_ms", "ms"},
		metricSpec{"directgraph.pages", "count/op"},
		metricSpec{"directgraph.inflation", "ratio"},
	)
	for _, e := range core.AllExperiments() {
		out = append(out, metricSpec{"core." + e.ID + "_ms", "ms"})
	}
	out = append(out, metricSpec{"core.critical_path_ms", "ms"})
	for _, k := range platform.All() {
		for _, d := range mixDatasets {
			out = append(out, metricSpec{"simtime.elapsed_us." + k.String() + "." + d, "us"})
		}
	}
	out = append(out,
		metricSpec{"simtime.flash_reads", "count"},
		metricSpec{"simtime.bus_mb", "MB"},
	)
	for _, p := range sharePhases {
		out = append(out, metricSpec{"simtime.share." + p, "ratio"})
	}
	return append(out,
		metricSpec{"runtime.gc_cycles_per_op", "count/op"},
		metricSpec{"runtime.alloc_mb_per_op", "MB/op"},
		metricSpec{"trace.overhead_ratio", "ratio"},
	)
}

// endToEndMetrics turns a timed phase into the seven end-to-end metrics.
func endToEndMetrics(setupS float64, t timing) map[string]metric {
	n := float64(len(t.lat))
	lat := millis(t.lat)
	return map[string]metric{
		"setup_s":       {setupS, "s"},
		"lat_p50_ms":    {quantile(lat, 0.5), "ms"},
		"lat_p90_ms":    {quantile(lat, 0.9), "ms"},
		"cpu_ms_per_op": {float64(t.cpu.Nanoseconds()) / 1e6 / n, "ms"},
		"allocs_per_op": {float64(t.mallocs) / n, "allocs/op"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
		"ok_frac":       {(n - float64(t.failed)) / n, "ratio"},
	}
}

// timedReport wraps a timed phase into the run's report.
func timedReport(setupS float64, t timing) *report {
	return &report{
		Correct:   t.failed == 0,
		Attempted: len(t.lat),
		Failed:    t.failed,
		Metrics:   endToEndMetrics(setupS, t),
	}
}
