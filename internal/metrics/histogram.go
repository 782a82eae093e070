package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"beacongnn/internal/sim"
)

// numBuckets log-1.15 buckets cover 1 ns to ≈390 s; the top bucket is
// open-ended and answers with the exact max (see Quantile), so a tail
// beyond the range is never clamped to a bucket bound.
const numBuckets = 192

// Histogram accumulates durations into logarithmic buckets, giving
// approximate quantiles at O(1) memory — used for per-command lifetime
// tails (the paper reports means; tails expose the queueing behaviour
// behind them).
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     sim.Time
	min     sim.Time
	max     sim.Time
}

// bucketBound[b] is the smallest duration that falls in bucket b (or a
// later one), derived in init from the defining floor(log1.15(ns))
// formula so the integer lookup matches it exactly. Observe sits on the
// per-event hot path, so bucketOf replaces two math.Log calls per
// observation with a table lookup and a short walk over these bounds.
var bucketBound [numBuckets]sim.Time

// octaveFirst[n] is the bucket of 2^(n-1), the smallest duration whose
// bit length is n. A bucket spans a factor of 1.15 and an octave a
// factor of 2, so at most five bounds lie inside any one octave.
var octaveFirst [65]uint8

func logBucket(d sim.Time) int {
	b := int(math.Log(float64(d)) / math.Log(1.15))
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

func init() {
	for b := 1; b < numBuckets; b++ {
		d := sim.Time(math.Ceil(math.Pow(1.15, float64(b))))
		// Walk to the exact first integer duration the float formula
		// assigns to bucket b, absorbing any rounding slop.
		for d > 1 && logBucket(d-1) >= b {
			d--
		}
		for logBucket(d) < b {
			d++
		}
		bucketBound[b] = d
	}
	b := 0
	for n := 1; n < 64; n++ {
		v := sim.Time(1) << (n - 1)
		for b+1 < numBuckets && bucketBound[b+1] <= v {
			b++
		}
		octaveFirst[n] = uint8(b)
	}
}

// bucketOf maps a duration to a bucket: ~18 buckets per decade
// (bucket = floor(log1.15(ns))), clamped to the array. It is the largest
// b with bucketBound[b] <= d, found from d's octave in a few steps.
func bucketOf(d sim.Time) int {
	if d <= 0 {
		return 0
	}
	b := int(octaveFirst[bits.Len64(uint64(d))])
	for b+1 < numBuckets && bucketBound[b+1] <= d {
		b++
	}
	return b
}

// bucketMid returns the midpoint of bucket b's exact integer range
// [bucketBound[b], bucketBound[b+1]). The old estimator returned the
// float math.Pow lower bound, which both sat at the bucket floor and
// could disagree with the exact integer boundaries derived in init.
// The open top bucket has no midpoint; Quantile answers it with the max.
func bucketMid(b int) sim.Time {
	lo := bucketBound[b]
	return lo + (bucketBound[b+1]-1-lo)/2
}

// Observe records one duration.
func (h *Histogram) Observe(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Merge folds another histogram's observations into h, as if every
// duration o observed had been observed on h directly — counts and
// buckets add exactly, min/max take the true extremes, and quantiles of
// the merged stream are identical to observing the union. The capacity
// sweeper uses it to aggregate per-load-step latency distributions into
// whole-sweep tails. o is unmodified; merging an empty histogram (or
// nil) is a no-op, and merging into an empty h must not let h's zero
// min/max masquerade as observations.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact mean of observations.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Empty reports whether the histogram has no observations. Min, Max,
// and Quantile all return 0 on an empty histogram — indistinguishable
// from an observed 0 — so renderers must check this first.
func (h *Histogram) Empty() bool { return h.count == 0 }

// Min and Max return the exact extremes (0 when empty; see Empty).
func (h *Histogram) Min() sim.Time { return h.min }

// Max returns the largest observation (0 when empty; see Empty).
func (h *Histogram) Max() sim.Time { return h.max }

// Quantile returns an approximate quantile (q in [0,1]); resolution is
// the bucket width (±15 %). The estimate is the bucket midpoint of the
// nearest-rank observation — rank ⌈q·n⌉, so the median of two samples
// is the smaller one, not always the larger — bounded by the exact
// min/max. A rank in the open top bucket answers the exact max.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(NearestRank(q, int(h.count)))
	var cum uint64
	for b, n := range h.buckets {
		cum += n
		if cum >= rank {
			if b == numBuckets-1 {
				return h.max
			}
			est := bucketMid(b)
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
	}
	return h.max
}

// NearestRank returns the 1-based nearest rank ⌈q·n⌉ of quantile q
// among n ≥ 1 sorted samples, clamped to [1, n]: the rank every exact
// and histogram quantile in the program reads. It guards against float
// overshoot: when q·n is an exact rank mathematically, the double
// product can land epsilon above it (0.07·100 = 7.000000000000001) and
// a bare Ceil then returns the next rank up. Intended products are
// either integers or at least ~1e-3 away, so a 1e-9 relative snap-down
// is far from shifting a genuinely fractional rank while absorbing the
// representation error.
func NearestRank(q float64, n int) int {
	rank := int(math.Ceil(q * float64(n) * (1 - 1e-9)))
	return min(max(rank, 1), n)
}

// String renders count/mean/p50/p99/max. An empty histogram says so
// instead of rendering a misleading row of zero durations.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "n=0 (no observations)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
	return b.String()
}
