package loadgen

import (
	"sort"

	"beacongnn/internal/metrics"
	"beacongnn/internal/sim"
)

// latSummary computes exact nearest-rank quantiles over raw latency
// samples, for the capacity and chaos sweeps alike. Step sample counts
// are bounded by the schedule length, so an exact sort is cheap and
// beats metrics.Histogram's ±15 % bucket estimates; sorting in place is
// fine because samples are never needed in arrival order again.
func latSummary(samples []sim.Time) (mean, p50, p99, p999, max int64) {
	n := len(samples)
	if n == 0 {
		return 0, 0, 0, 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum sim.Time
	for _, s := range samples {
		sum += s
	}
	at := func(q float64) int64 { return int64(samples[metrics.NearestRank(q, n)-1]) }
	return int64(sum / sim.Time(n)), at(0.5), at(0.99), at(0.999), int64(samples[n-1])
}
