package metrics

import (
	"math"
	"math/rand"
	"testing"

	"beacongnn/internal/sim"
)

// searchBucket is bucketOf's original binary search over bucketBound,
// kept as the reference for the octave-table lookup.
func searchBucket(d sim.Time) int {
	if d <= 0 {
		return 0
	}
	lo, hi := 0, numBuckets-1
	for lo < hi {
		mid := (lo + hi + 1) >> 1
		if bucketBound[mid] <= d {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func TestBucketOfAtBounds(t *testing.T) {
	// The smallest buckets are empty: several share one integer bound,
	// and a duration lands in the last of them. Every non-empty bucket
	// starts exactly at its bound and ends just before the next one.
	for b := 1; b < numBuckets; b++ {
		lo := bucketBound[b]
		for _, d := range []sim.Time{lo - 1, lo, lo + 1} {
			if got, want := bucketOf(d), searchBucket(d); got != want {
				t.Fatalf("bucketOf(%d) = %d, binary search = %d", d, got, want)
			}
		}
		if b == numBuckets-1 || bucketBound[b+1] > lo {
			if got := bucketOf(lo); got != b {
				t.Errorf("bucketOf(bucketBound[%d]=%d) = %d, want %d", b, lo, got, b)
			}
		}
		if bucketBound[b-1] < lo && b-1 > 0 {
			if got := bucketOf(lo - 1); got != b-1 {
				t.Errorf("bucketOf(bucketBound[%d]-1=%d) = %d, want %d", b, lo-1, got, b-1)
			}
		}
	}
}

func TestBucketOfMatchesSearch(t *testing.T) {
	ds := []sim.Time{math.MinInt64, -1, 0, 1, 2, 3, 1<<62 - 1, 1 << 62, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		// Log-uniform over the whole positive int64 range.
		ds = append(ds, sim.Time(rng.Int63()>>rng.Intn(63)))
	}
	for _, d := range ds {
		if got, want := bucketOf(d), searchBucket(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, binary search = %d", d, got, want)
		}
	}
}

// TestNearestRank pins the rank rule ⌈q·n⌉. At the 60 requests a
// beaconbench -drive run sends by default, p99 is the largest sample
// (rank 60), not the second largest that the floor rank ⌊q·(n−1)⌋+1
// gives.
func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		q       float64
		n, want int
	}{
		{0.99, 60, 60},
		{0.5, 60, 30},
		{0.999, 60, 60},
		{0.07, 100, 7}, // q·n lands a hair above 7 in float64
		{0.5, 2, 1},
		{0, 5, 1},
		{1, 5, 5},
		{0.5, 1, 1},
	} {
		if got := NearestRank(c.q, c.n); got != c.want {
			t.Errorf("NearestRank(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}
