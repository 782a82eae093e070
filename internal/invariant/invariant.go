// Package invariant is the simulation correctness net: a default-off
// checker that observes a run through the same zero-overhead hooks the
// tracer and energy meter use, and proves at run end that the event
// flow conserved work, time, and energy. The aggregate numbers the
// figure runners print (throughput, utilization, energy breakdowns)
// are only trustworthy if these hold; SimpleSSD makes the same point
// by validating its model against hardware — here the model validates
// itself against its own event stream.
//
// A Checker accumulates observations during a run and is interrogated
// once, at completion. Every violated invariant is reported by NAME
// (e.g. "flash.conservation", "kernel.monotone-time") with a detail
// string, so a failing -check run tells the operator which law broke,
// not just that something did.
//
// Checked invariants:
//
//   - kernel.monotone-time  event timestamps never move backwards
//   - queues.drained        every registered queue empty at completion
//   - span.ordered          each trace span has arrived ≤ start ≤ end
//   - span.nested           per-resource span overlap ≤ server width
//   - server.utilization    per-resource busy time ≤ wall time × width
//   - energy.nonnegative    no per-event charge is negative
//   - energy.ledger         reported total == sum of per-event charges
//   - flash.conservation    senses == requests + recovery re-senses
//
// plus any client assertion made through Assert/AssertNear (the
// platform layer adds result-level checks under "result.*" names).
//
// To add an invariant: either observe state through a new hook method
// and test it in Finish (for properties of the event flow), or call
// Assert from the integration layer (for properties of derived
// results). Keep hooks allocation-free on the hot path — the checker
// may be attached to every simulation of a sweep.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"beacongnn/internal/energy"
	"beacongnn/internal/sim"
)

// Violation is one broken invariant.
type Violation struct {
	Invariant string // stable name, e.g. "flash.conservation"
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Error wraps the violations of a checked run.
type Error struct {
	Violations []Violation
}

func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return "invariant: no violations"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant violated: %s", e.Violations[0])
	if n := len(e.Violations) - 1; n > 0 {
		fmt.Fprintf(&b, " (and %d more)", n)
		for _, v := range e.Violations[1:] {
			fmt.Fprintf(&b, "\n  %s", v)
		}
	}
	return b.String()
}

// maxDetailsPerInvariant caps how many violations of the same invariant
// are recorded verbatim; a systematically broken rule would otherwise
// flood the report with one line per event.
const maxDetailsPerInvariant = 3

type resKey struct {
	resource string
	lane     int
}

type span struct{ start, end sim.Time }

type resource struct {
	width   int // 0 = unknown (capacity checks skipped)
	service sim.Time
	spans   []span
	count   uint64
}

// Checker accumulates observations from one simulation run. It
// implements sim.Tracer, and its hook methods are safe to leave
// attached for the whole run; call Finish exactly once afterwards.
// Not safe for concurrent use — attach one Checker per system, like
// the kernel itself.
type Checker struct {
	violations []Violation
	perName    map[string]int

	// kernel clock
	probeSteps uint64
	lastAt     sim.Time
	haveLast   bool

	// trace spans per resource
	resources map[resKey]*resource

	// drain probes, polled in Finish
	drains []drainProbe

	// energy shadow ledger
	energyJ float64

	// flash sense ledger
	senseRequested uint64
	senseRecovery  uint64
}

type drainProbe struct {
	name  string
	probe func() (busy, queued int)
}

// New returns an empty checker.
func New() *Checker {
	return &Checker{
		perName:   make(map[string]int),
		resources: make(map[resKey]*resource),
	}
}

// violate records a named violation, keeping at most a few details per
// invariant name (the count is always exact in the summary line).
func (c *Checker) violate(name, format string, args ...any) {
	c.perName[name]++
	if c.perName[name] == maxDetailsPerInvariant+1 {
		c.violations = append(c.violations, Violation{name, "further violations suppressed"})
		return
	}
	if c.perName[name] > maxDetailsPerInvariant {
		return
	}
	c.violations = append(c.violations, Violation{name, fmt.Sprintf(format, args...)})
}

// Assert records a named violation when ok is false and returns ok.
// Integration layers use it for derived-result invariants.
func (c *Checker) Assert(name string, ok bool, format string, args ...any) bool {
	if !ok {
		c.violate(name, format, args...)
	}
	return ok
}

// AssertNear asserts |got−want| ≤ tol·max(1,|want|), a relative
// tolerance for floating-point ledgers.
func (c *Checker) AssertNear(name string, got, want, tol float64, what string) bool {
	bound := tol
	if w := want; w < 0 {
		w = -w
		if w > 1 {
			bound = tol * w
		}
	} else if w > 1 {
		bound = tol * w
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return c.Assert(name, diff <= bound, "%s: got %v, want %v (tol %v)", what, got, want, bound)
}

// RegisterResource declares a traced resource's service width so Finish
// can check span nesting and total busy time against capacity.
// Resources that produce spans without a registration still get the
// per-span ordering check.
func (c *Checker) RegisterResource(name string, lane, width int) {
	k := resKey{name, lane}
	r := c.resources[k]
	if r == nil {
		r = &resource{}
		c.resources[k] = r
	}
	r.width = width
}

// RegisterDrain adds a completion-time drain probe: at Finish, probe()
// must report zero busy and zero queued work, or "queues.drained" is
// violated with the given name.
func (c *Checker) RegisterDrain(name string, probe func() (busy, queued int)) {
	c.drains = append(c.drains, drainProbe{name, probe})
}

// KernelStep is the kernel probe (install with sim.Kernel.SetProbe):
// it checks that event times never move backwards.
func (c *Checker) KernelStep(at sim.Time) {
	c.probeSteps++
	if c.haveLast && at < c.lastAt {
		c.violate("kernel.monotone-time", "event at %v after event at %v (step %d)", at, c.lastAt, c.probeSteps)
	}
	c.lastAt = at
	c.haveLast = true
}

// ServerSpan implements sim.Tracer: every service span is checked for
// internal ordering and retained for the nesting/utilization checks.
func (c *Checker) ServerSpan(resourceName string, lane int, arrived, start, end sim.Time) {
	if !(arrived <= start && start <= end) {
		c.violate("span.ordered", "%s[%d]: arrived %v, start %v, end %v", resourceName, lane, arrived, start, end)
	}
	if arrived < 0 {
		c.violate("span.ordered", "%s[%d]: negative arrival %v", resourceName, lane, arrived)
	}
	k := resKey{resourceName, lane}
	r := c.resources[k]
	if r == nil {
		r = &resource{}
		c.resources[k] = r
	}
	r.count++
	r.service += end - start
	r.spans = append(r.spans, span{start, end})
}

// EnergyEvent is the meter hook (install with energy.Meter.OnAdd): it
// keeps the shadow ledger the reported total is compared against.
func (c *Checker) EnergyEvent(comp energy.Component, j float64) {
	if j < 0 {
		c.violate("energy.nonnegative", "%s charged %g J", comp, j)
	}
	c.energyJ += j
}

// EnergyTotal returns the shadow ledger's sum of per-event charges.
func (c *Checker) EnergyTotal() float64 { return c.energyJ }

// CountSenseRequest records one page-read request entering the managed
// sense path (the "requested exactly once" side of flash.conservation).
func (c *Checker) CountSenseRequest() { c.senseRequested++ }

// CountRecoverySense records one extra sense issued by the recovery
// ladder (retry re-sense or degraded final sense) — the "modulo retry"
// allowance of flash.conservation.
func (c *Checker) CountRecoverySense() { c.senseRecovery++ }

// SenseLedger returns (requested, recovery) sense counts.
func (c *Checker) SenseLedger() (requested, recovery uint64) {
	return c.senseRequested, c.senseRecovery
}

// CheckFlashConservation asserts the backend's sense counter equals
// requests plus recovery re-senses: every requested page was sensed
// exactly once, modulo dedup (upstream of the request count) and retry.
func (c *Checker) CheckFlashConservation(backendReads uint64) bool {
	return c.Assert("flash.conservation",
		backendReads == c.senseRequested+c.senseRecovery,
		"backend sensed %d pages, ledger has %d requests + %d recovery senses",
		backendReads, c.senseRequested, c.senseRecovery)
}

// Steps returns how many kernel events the probe observed.
func (c *Checker) Steps() uint64 { return c.probeSteps }

// Finish runs the completion-time checks against the run's elapsed
// simulated time and returns all violations accumulated so far. Call
// it once, after the kernel has drained.
func (c *Checker) Finish(elapsed sim.Time) []Violation {
	for _, d := range c.drains {
		if busy, queued := d.probe(); busy != 0 || queued != 0 {
			c.violate("queues.drained", "%s: %d in service, %d queued at completion", d.name, busy, queued)
		}
	}
	// Deterministic iteration for stable diagnostics.
	keys := make([]resKey, 0, len(c.resources))
	for k := range c.resources {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].resource != keys[j].resource {
			return keys[i].resource < keys[j].resource
		}
		return keys[i].lane < keys[j].lane
	})
	for _, k := range keys {
		r := c.resources[k]
		c.checkResource(k, r, elapsed)
	}
	return c.Violations()
}

func (c *Checker) checkResource(k resKey, r *resource, elapsed sim.Time) {
	if elapsed > 0 {
		for _, s := range r.spans {
			if s.end > elapsed {
				c.violate("span.ordered", "%s[%d]: span ends at %v, after run end %v", k.resource, k.lane, s.end, elapsed)
				break
			}
		}
	}
	if r.width <= 0 {
		return // width unknown: capacity checks don't apply
	}
	if elapsed > 0 && r.service > elapsed*sim.Time(r.width) {
		c.violate("server.utilization", "%s[%d]: %v busy over %v wall × width %d (utilization %.3f)",
			k.resource, k.lane, r.service, elapsed, r.width,
			r.service.Seconds()/(elapsed.Seconds()*float64(r.width)))
	}
	// Sweep the spans in start order, retiring ends through a min-heap,
	// to bound peak overlap by the server width: a width-w server can
	// run at most w requests at once, so any deeper nesting means the
	// trace (or the server) double-booked a slot.
	if len(r.spans) > 1 {
		spans := make([]span, len(r.spans))
		copy(spans, r.spans)
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		ends := make(timeHeap, 0, r.width+1)
		for _, s := range spans {
			for len(ends) > 0 && ends[0] <= s.start {
				ends.pop()
			}
			ends.push(s.end)
			if len(ends) > r.width {
				c.violate("span.nested", "%s[%d]: %d overlapping spans at %v exceed width %d",
					k.resource, k.lane, len(ends), s.start, r.width)
				return
			}
		}
	}
}

// Violations returns a copy of everything recorded so far.
func (c *Checker) Violations() []Violation {
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Err returns nil when every invariant held, or an *Error naming each
// violated invariant.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return &Error{Violations: c.Violations()}
}

// timeHeap is a minimal min-heap of times for the span sweep.
type timeHeap []sim.Time

func (h *timeHeap) push(t sim.Time) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *timeHeap) pop() sim.Time {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && (*h)[l] < (*h)[m] {
			m = l
		}
		if r < n && (*h)[r] < (*h)[m] {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}
