package chaos

// Backoff computes capped exponential retry delays in whatever clock
// units the caller uses (nanoseconds for wall time, sim.Time ticks for
// loadgen's virtual service center). The shift is clamped before it is
// applied, so arbitrarily large attempt counts saturate at Max instead
// of wrapping negative — the overflow class fixed in
// internal/platform's recovery ladder lives behind the same guard here.
type Backoff struct {
	Base int64 // delay for attempt 0; <= 0 disables (Delay returns 0)
	Max  int64 // saturation ceiling; <= 0 means 8*Base
}

// maxShift bounds the doubling exponent: 1<<40 base units is ~18
// minutes in nanoseconds, far past any deadline this system serves
// under, and keeps Base<<shift comfortably inside int64 for any sane
// Base.
const maxShift = 40

// Delay returns the backoff before retry number attempt (0-based),
// jittered into [d/2, d) by u, which the caller draws from its own
// deterministic stream (u in [0, 1)). Full-jitter-over-half keeps the
// ordering property tests rely on — larger attempt never waits less —
// while still decorrelating retry storms.
func (b Backoff) Delay(attempt int, u float64) int64 {
	if b.Base <= 0 {
		return 0
	}
	max := b.Max
	if max <= 0 {
		max = 8 * b.Base
		if max <= 0 { // 8×Base itself overflowed
			max = 1 << 62
		}
	}
	shift := attempt
	if shift < 0 {
		shift = 0
	}
	if shift > maxShift {
		shift = maxShift
	}
	d := b.Base << uint(shift)
	if d <= 0 || d > max {
		d = max
	}
	half := d / 2
	jittered := half + int64(u*float64(d-half))
	if jittered < 1 {
		jittered = 1
	}
	return jittered
}
