package chaos

import "sync"

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: requests are refused until the cooldown elapses.
	Open
	// HalfOpen: one probe request is allowed through; its outcome
	// decides between Closed and Open.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// BreakerConfig parameterizes a Breaker. Times are caller clock units
// (nanoseconds for the daemon, sim.Time ticks for the virtual
// pipeline).
type BreakerConfig struct {
	Threshold int   // consecutive failures that trip Closed -> Open (default 5)
	Cooldown  int64 // Open dwell before a HalfOpen probe is allowed (default 10e9)
}

func (c *BreakerConfig) withDefaults() BreakerConfig {
	out := *c
	if out.Threshold <= 0 {
		out.Threshold = 5
	}
	if out.Cooldown <= 0 {
		out.Cooldown = 10_000_000_000
	}
	return out
}

// Breaker is a clock-agnostic consecutive-failure circuit breaker:
// closed -> open after Threshold consecutive failures, open ->
// half-open after Cooldown, half-open admits exactly one probe whose
// success closes the circuit and whose failure reopens it. The caller
// supplies the clock (wall or virtual), which is what makes the same
// breaker drive both the live daemon and the deterministic
// availability sweep. Safe for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    BreakerState
	fails    int   // consecutive failures while Closed
	openedAt int64 // clock value of the last Closed/HalfOpen -> Open transition
	probing  bool  // a HalfOpen probe is in flight

	trips     uint64 // lifetime Closed/HalfOpen -> Open transitions
	openTotal int64  // summed clock time spent Open (through last close)
	closes    uint64 // Open/HalfOpen -> Closed recoveries

	onChange func(BreakerState)
}

// NewBreaker builds a breaker in the Closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// OnStateChange registers fn to be called (under the breaker lock, so
// keep it cheap — a gauge set) on every state transition.
func (b *Breaker) OnStateChange(fn func(BreakerState)) {
	b.mu.Lock()
	b.onChange = fn
	b.mu.Unlock()
}

func (b *Breaker) setState(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	if b.onChange != nil {
		b.onChange(s)
	}
}

// State returns the current position (Open is reported even if the
// cooldown has lapsed; the transition happens on the next Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a request may proceed at clock value now.
// Open flips to HalfOpen once the cooldown has elapsed, and HalfOpen
// admits exactly one concurrent probe — later callers are refused
// until that probe Records or cancels.
func (b *Breaker) Allow(now int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now-b.openedAt < b.cfg.Cooldown {
			return false
		}
		b.setState(HalfOpen)
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Record reports the outcome of an admitted request. A HalfOpen
// probe's success closes the circuit; its failure reopens it (with the
// cooldown restarting at now). While Closed, failures accumulate and
// trip the breaker at Threshold; any success resets the count.
func (b *Breaker) Record(now int64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.trip(now)
		}
	case HalfOpen:
		b.probing = false
		if ok {
			b.openTotal += now - b.openedAt
			b.closes++
			b.fails = 0
			b.setState(Closed)
		} else {
			b.trip(now)
		}
	case Open:
		// A late Record from a request admitted before the trip: only
		// successes matter, and only as evidence for the next probe —
		// ignore, the cooldown clock is already running.
	}
}

// CancelProbe releases the HalfOpen probe slot without recording an
// outcome — the probe was abandoned (client gone, drain) and says
// nothing about downstream health.
func (b *Breaker) CancelProbe() {
	b.mu.Lock()
	if b.state == HalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// trip moves to Open at now. Caller holds the lock.
func (b *Breaker) trip(now int64) {
	b.fails = 0
	b.openedAt = now
	b.trips++
	b.probing = false
	b.setState(Open)
}

// BreakerStats is a snapshot of lifetime breaker activity.
type BreakerStats struct {
	State     BreakerState
	Trips     uint64
	Closes    uint64
	OpenTotal int64 // clock units spent Open, through the last close
}

// Stats snapshots the breaker. MTTR is OpenTotal/Closes when Closes >
// 0 — computed by the caller, which knows the clock units.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{State: b.state, Trips: b.trips, Closes: b.closes, OpenTotal: b.openTotal}
}
