package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"

	"beacongnn/internal/sim"
)

func TestPhaseAccumulation(t *testing.T) {
	c := NewCollector()
	c.AddPhase(PhaseFlash, 10)
	c.AddPhase(PhaseFlash, 5)
	c.AddPhase(PhasePCIe, 5)
	if c.Phase(PhaseFlash) != 15 {
		t.Fatalf("flash = %v", c.Phase(PhaseFlash))
	}
	shares, total := c.PhaseBreakdown()
	if total != 20 {
		t.Fatalf("total = %v", total)
	}
	if shares[0].Phase != PhaseFlash || math.Abs(shares[0].Fraction-0.75) > 1e-12 {
		t.Fatalf("shares[0] = %+v", shares[0])
	}
}

func TestNegativePhasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative phase accepted")
		}
	}()
	NewCollector().AddPhase(PhaseHost, -1)
}

func TestCommandBreakdown(t *testing.T) {
	c := NewCollector()
	c.CommandLifetime(10, 3, 7, 5) // 25
	c.CommandLifetime(20, 3, 13, 5)
	bd, life := c.CommandBreakdown()
	if c.Commands() != 2 {
		t.Fatalf("commands = %d", c.Commands())
	}
	if bd[PhaseWaitBefore] != 15 || bd[PhaseFlash] != 3 || bd[PhaseWaitAfter] != 10 || bd[PhaseChannel] != 5 {
		t.Fatalf("breakdown = %v", bd)
	}
	if life != 33 {
		t.Fatalf("mean lifetime = %v", life)
	}
}

func TestCommandBreakdownEmpty(t *testing.T) {
	bd, life := NewCollector().CommandBreakdown()
	if len(bd) != 0 || life != 0 {
		t.Fatal("empty collector returned data")
	}
}

func TestHopTimelineSerialized(t *testing.T) {
	c := NewCollector()
	// Hop 1: [0,10]; hop 2: [12,20]; no overlap.
	c.HopStart(1, 0)
	c.HopEnd(1, 10)
	c.HopStart(2, 12)
	c.HopEnd(2, 20)
	spans := c.HopTimeline()
	if len(spans) != 2 || spans[0].Hop != 1 || spans[1].First != 12 {
		t.Fatalf("spans = %+v", spans)
	}
	if c.OverlapFraction() != 0 {
		t.Fatalf("overlap = %v, want 0", c.OverlapFraction())
	}
}

func TestHopTimelineOverlapping(t *testing.T) {
	c := NewCollector()
	c.HopStart(1, 0)
	c.HopEnd(1, 10)
	c.HopStart(2, 2) // starts while hop 1 active
	c.HopEnd(2, 12)
	got := c.OverlapFraction()
	if got <= 0.5 || got > 1 {
		t.Fatalf("overlap = %v, want (0.5,1]", got)
	}
}

func TestHopExtremesKept(t *testing.T) {
	c := NewCollector()
	c.HopStart(1, 5)
	c.HopStart(1, 2) // earlier start wins
	c.HopEnd(1, 7)
	c.HopEnd(1, 4) // later end kept
	s := c.HopTimeline()[0]
	if s.First != 2 || s.Last != 7 {
		t.Fatalf("span = %+v", s)
	}
}

func TestThroughput(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.TargetDone()
	}
	c.BatchDone()
	if c.Targets() != 100 || c.Batches() != 1 {
		t.Fatal("counters wrong")
	}
	tp := c.Throughput(sim.Second / 2)
	if math.Abs(tp-200) > 1e-9 {
		t.Fatalf("throughput = %v, want 200", tp)
	}
	if c.Throughput(0) != 0 {
		t.Fatal("zero-time throughput should be 0")
	}
}

func TestStringRenders(t *testing.T) {
	c := NewCollector()
	c.AddPhase(PhaseDRAM, 3)
	if len(c.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(sim.Time(i) * sim.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != sim.Microsecond || h.Max() != 1000*sim.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	mean := h.Mean()
	if mean < 490*sim.Microsecond || mean > 510*sim.Microsecond {
		t.Fatalf("mean = %v, want ≈500µs", mean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 380*sim.Microsecond || p50 > 620*sim.Microsecond {
		t.Fatalf("p50 = %v, want ≈500µs ±bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 850*sim.Microsecond || p99 > 1000*sim.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("extreme quantiles not clamped to min/max")
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	var h Histogram
	r := uint64(12345)
	for i := 0; i < 5000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		h.Observe(sim.Time(r % 1_000_000))
	}
	prev := sim.Time(-1)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if len(h.String()) == 0 {
		t.Fatal("empty render")
	}
}

// TestHistogramQuantileRankConvention pins the nearest-rank fix: the
// estimator used to take rank floor(q·n) with a strict comparison,
// which walked one observation too far — the median of two samples
// always came back as the larger one.
func TestHistogramQuantileRankConvention(t *testing.T) {
	var h Histogram
	h.Observe(100 * sim.Microsecond)
	h.Observe(200 * sim.Microsecond)
	p50 := h.Quantile(0.5)
	if p50 >= 200*sim.Microsecond {
		t.Fatalf("p50 of {100µs, 200µs} = %v, must not be the larger sample", p50)
	}
	if p50 < 100*sim.Microsecond {
		t.Fatalf("p50 = %v below the smaller sample", p50)
	}
	// q just above 1/2 crosses into the second observation.
	if p51 := h.Quantile(0.51); p51 != 200*sim.Microsecond {
		t.Fatalf("p51 = %v, want the larger sample (clamped exact)", p51)
	}
}

// TestHistogramSingleSampleExact pins the midpoint estimator: with one
// observation every quantile collapses to it exactly (the bucket
// midpoint is clamped by the true min/max). The old floor-of-bucket
// estimator returned the float bucket lower bound instead.
func TestHistogramSingleSampleExact(t *testing.T) {
	for _, v := range []sim.Time{1, 7, 100, 3 * sim.Microsecond, 999_999} {
		var h Histogram
		h.Observe(v)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if got := h.Quantile(q); got != v {
				t.Fatalf("single sample %v: Quantile(%v) = %v", v, q, got)
			}
		}
	}
}

// TestHistogramQuantileWithinOneBucketOfExact checks the estimator
// against an exact sort over log-uniform samples from 1 ns to 100 s:
// every quantile must land within one log-1.15 bucket of the exact
// nearest-rank value. A histogram whose range ends below the sample
// range clamps its tail to the top bucket bound and fails here.
func TestHistogramQuantileWithinOneBucketOfExact(t *testing.T) {
	trueBucket := func(d sim.Time) int { return int(math.Floor(math.Log(float64(d)) / math.Log(1.15))) }
	r := uint64(99)
	for trial := 0; trial < 20; trial++ {
		var h Histogram
		n := 50 + 97*trial
		samples := make([]sim.Time, n)
		for i := range samples {
			r = r*6364136223846793005 + 1442695040888963407
			u := float64(r>>11) / (1 << 53)
			samples[i] = sim.Time(math.Exp(u * math.Log(100*float64(sim.Second))))
			h.Observe(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
			rank := int(math.Ceil(q * float64(n) * (1 - 1e-9)))
			if rank < 1 {
				rank = 1
			}
			exact, got := samples[rank-1], h.Quantile(q)
			if d := trueBucket(got) - trueBucket(exact); d < -1 || d > 1 {
				t.Fatalf("n=%d q=%v: estimate %v is %d buckets from exact %v", n, q, got, d, exact)
			}
		}
	}
}

// TestHistogramTopBucketAnswersMax: a rank in the open top bucket
// returns the exact max, not a bucket bound.
func TestHistogramTopBucketAnswersMax(t *testing.T) {
	var h Histogram
	for _, d := range []sim.Time{sim.Millisecond, 500 * sim.Second, 900 * sim.Second} {
		h.Observe(d)
	}
	if got := h.Quantile(0.5); got != 900*sim.Second {
		t.Fatalf("p50 in the top bucket = %v, want the exact max 900s", got)
	}
	if got := h.Quantile(0.2); got != sim.Millisecond {
		t.Fatalf("p20 = %v, want 1ms", got)
	}
}

func TestHistogramEmptyRendering(t *testing.T) {
	var h Histogram
	if !h.Empty() {
		t.Fatal("fresh histogram not Empty")
	}
	if s := h.String(); s != "n=0 (no observations)" {
		t.Fatalf("empty String() = %q", s)
	}
	h.Observe(5)
	if h.Empty() {
		t.Fatal("Empty after Observe")
	}
	if s := h.String(); s == "n=0 (no observations)" {
		t.Fatal("non-empty histogram renders as empty")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative observation mishandled: %v", h.Min())
	}
}

func TestCollectorHistogramWired(t *testing.T) {
	c := NewCollector()
	c.CommandLifetime(10, 3, 7, 5)
	if c.CommandHistogram().Count() != 1 {
		t.Fatal("histogram not fed by CommandLifetime")
	}
}

func TestPhaseQuantiles(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.AddPhase(PhaseFlash, sim.Time(i)*sim.Microsecond)
	}
	c.AddPhase(PhaseDRAM, 10)
	c.CommandLifetime(10, 3, 7, 5) // feeds the wait-phase distributions
	qs := c.PhaseQuantiles()
	byPhase := map[Phase]PhaseQuantile{}
	for i, q := range qs {
		byPhase[q.Phase] = q
		if i > 0 && qs[i-1].Phase >= q.Phase {
			t.Fatalf("quantiles not sorted by phase: %v before %v", qs[i-1].Phase, q.Phase)
		}
	}
	fl, ok := byPhase[PhaseFlash]
	if !ok || fl.Count != 100 {
		t.Fatalf("flash quantile = %+v", fl)
	}
	if fl.P50 < 38*sim.Microsecond || fl.P50 > 62*sim.Microsecond {
		t.Fatalf("flash p50 = %v, want ≈50µs", fl.P50)
	}
	if fl.P50 > fl.P95 || fl.P95 > fl.P99 {
		t.Fatalf("quantiles not monotone: %+v", fl)
	}
	if wb := byPhase[PhaseWaitBefore]; wb.Count != 1 || wb.P50 != 10 {
		t.Fatalf("wait_before_flash = %+v", wb)
	}
	if wa := byPhase[PhaseWaitAfter]; wa.Count != 1 {
		t.Fatalf("wait_after_flash = %+v", wa)
	}
	table := PhaseQuantileTable(qs)
	for _, want := range []string{"phase", "p99", string(PhaseFlash), string(PhaseWaitBefore)} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
