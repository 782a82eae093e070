package core

import (
	"math"
	"testing"
)

// TestClusterSpeedupColumns pins what each speedup column divides by:
// vs N=1 by the same placement's 1-device row, vs BG-2 by the memoized
// BG-2 baseline the header prints. The two differ because the cluster
// simulates its own shard devices.
func TestClusterSpeedupColumns(t *testing.T) {
	rep, err := BuildClusterReport(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var one float64
	for _, p := range rep.Scaling {
		if p.Shards == 1 {
			one = p.Throughput
			if p.SpeedupVsN1 != 1 {
				t.Errorf("%s N=1: vs N=1 = %g, want 1", p.Partitioner, p.SpeedupVsN1)
			}
		}
		if got, want := p.SpeedupVsN1, p.Throughput/one; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s N=%d: vs N=1 = %g, want %g", p.Partitioner, p.Shards, got, want)
		}
		if got, want := p.SpeedupVsBG2, p.Throughput/rep.BaselineThroughput; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s N=%d: vs BG-2 = %g, want %g", p.Partitioner, p.Shards, got, want)
		}
	}
}
