package loadgen

// StepResult is the measured outcome of one load-sweep step: the offered
// rate, how the backend disposed of the requests, and the
// coordinated-omission-safe latency tail (every latency is measured from
// the request's intended start). All durations are raw nanoseconds so
// the JSON encoding is exact and platform-independent.
type StepResult struct {
	OfferedQPS float64 `json:"offered_qps"`
	Requests   int     `json:"requests"`
	OK         int     `json:"ok"`
	Shed       int     `json:"shed"`
	Failed     int     `json:"failed,omitempty"`

	// Resilience outcomes (VirtualBackend.Resilience runs only): served
	// stale under an open breaker, refused at the front door, retries and
	// hedges launched, hedges that won their race, breaker trips, and the
	// mean breaker open dwell per recovery.
	Degraded     int   `json:"degraded,omitempty"`
	Dropped      int   `json:"dropped,omitempty"`
	Retries      int   `json:"retries,omitempty"`
	Hedges       int   `json:"hedges,omitempty"`
	HedgeWins    int   `json:"hedge_wins,omitempty"`
	BreakerTrips int   `json:"breaker_trips,omitempty"`
	MTTRNs       int64 `json:"mttr_ns,omitempty"`

	GoodputQPS float64 `json:"goodput_qps"`
	MeanNs     int64   `json:"mean_ns"`
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
	P999Ns     int64   `json:"p999_ns"`
	MaxNs      int64   `json:"max_ns"`
	MakespanNs int64   `json:"makespan_ns"`
}

// KneeRule defines when a sweep step still counts as "inside capacity":
// goodput must stay within GoodputFrac of the offered rate AND the p99
// must stay within TailFactor of the lightest step's p99. The knee is
// where an open queue transitions from flat latency to unbounded growth;
// both signals are needed because a shedding backend can keep latency
// flat while quietly dropping load, and a non-shedding one keeps goodput
// perfect while its queue (and tail) diverge.
type KneeRule struct {
	GoodputFrac float64
	TailFactor  float64
}

// DefaultKneeRule tolerates 3% goodput loss and a 5x tail inflation —
// loose enough to ride out bucket-resolution noise, tight enough that a
// saturated open queue (whose p99 grows with the schedule length, not a
// constant factor) always trips it.
func DefaultKneeRule() KneeRule { return KneeRule{GoodputFrac: 0.97, TailFactor: 5} }

// Knee returns the index of the last sweep step still inside capacity
// under the rule — the highest measured load the platform sustains — and
// whether saturation was actually observed within the sweep. Steps must
// be ordered by increasing offered load. The scan takes the last
// consecutive prefix of satisfying steps (a later step that recovers,
// e.g. by shedding its way back to a flat tail, is past the knee and
// does not count). Returns (-1, false) if even the first step violates
// the rule, and (len-1, false) for a curve that never saturates — the
// knee lies beyond the sweep, so the last index is only a lower bound.
func Knee(steps []StepResult, rule KneeRule) (int, bool) {
	if len(steps) == 0 {
		return -1, false
	}
	if rule.GoodputFrac <= 0 || rule.TailFactor <= 0 {
		rule = DefaultKneeRule()
	}
	baseP99 := steps[0].P99Ns
	knee := -1
	for i, s := range steps {
		if s.GoodputQPS < rule.GoodputFrac*s.OfferedQPS {
			break
		}
		// A zero base (all-shed first step has no latency samples)
		// leaves only the goodput criterion.
		if baseP99 > 0 && float64(s.P99Ns) > rule.TailFactor*float64(baseP99) {
			break
		}
		knee = i
	}
	return knee, knee >= 0 && knee < len(steps)-1
}
