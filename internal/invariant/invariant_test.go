package invariant

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/energy"
	"beacongnn/internal/sim"
)

func energyConfigForTest() config.Energy { return config.Default().Energy }

func violationNames(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Invariant)
	}
	return out
}

func hasViolation(t *testing.T, c *Checker, name string) Violation {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Invariant == name {
			return v
		}
	}
	t.Fatalf("expected a %q violation, got %v", name, violationNames(c.Violations()))
	return Violation{}
}

// A fully consistent run must produce zero violations.
func TestCleanRunHasNoViolations(t *testing.T) {
	c := New()
	c.RegisterResource("res", 0, 2)
	c.RegisterDrain("res", func() (int, int) { return 0, 0 })

	c.KernelStep(0)
	c.KernelStep(5)
	c.KernelStep(5) // equal timestamps are legal (seq breaks ties)
	c.KernelStep(9)

	// Two overlapping spans on a width-2 server, plus a later one.
	c.ServerSpan("res", 0, 0, 0, 4)
	c.ServerSpan("res", 0, 1, 1, 3)
	c.ServerSpan("res", 0, 2, 4, 9)
	// An unregistered resource only gets the ordering check.
	c.ServerSpan("other", 3, 1, 2, 3)

	a, b := 1e-9, 2e-9
	c.EnergyEvent(energy.FlashRead, a)
	c.EnergyEvent(energy.Static, b)
	wantEnergy := a + b // runtime float addition, mirroring the ledger

	c.CountSenseRequest()
	c.CountSenseRequest()
	c.CountRecoverySense()
	if !c.CheckFlashConservation(3) {
		t.Fatalf("consistent sense ledger rejected")
	}

	if vs := c.Finish(10); len(vs) != 0 {
		t.Fatalf("clean run produced violations: %v", vs)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
	if got := c.EnergyTotal(); got != wantEnergy {
		t.Fatalf("EnergyTotal() = %g, want %g", got, wantEnergy)
	}
	if c.Steps() != 4 {
		t.Fatalf("Steps() = %d, want 4", c.Steps())
	}
}

// Mutation test: deliberately break the sense-conservation rule and
// require the named diagnostic. This is the acceptance-criteria probe
// that the checker actually detects a broken conservation law rather
// than vacuously passing.
func TestBrokenConservationIsNamed(t *testing.T) {
	c := New()
	for i := 0; i < 5; i++ {
		c.CountSenseRequest()
	}
	// The "device" claims 6 senses for 5 requests and no recovery.
	if c.CheckFlashConservation(6) {
		t.Fatalf("inconsistent sense ledger accepted")
	}
	v := hasViolation(t, c, "flash.conservation")
	if !strings.Contains(v.Detail, "6") || !strings.Contains(v.Detail, "5") {
		t.Fatalf("diagnostic %q does not carry the mismatched counts", v.Detail)
	}
	err := c.Err()
	if err == nil {
		t.Fatalf("Err() = nil for a violated run")
	}
	if !strings.Contains(err.Error(), "flash.conservation") {
		t.Fatalf("error %q does not name the violated invariant", err.Error())
	}
}

func TestMonotoneTimeViolation(t *testing.T) {
	c := New()
	c.KernelStep(10)
	c.KernelStep(9)
	hasViolation(t, c, "kernel.monotone-time")
}

func TestSpanOrderingViolations(t *testing.T) {
	c := New()
	c.ServerSpan("r", 0, 5, 4, 6) // start before arrival
	hasViolation(t, c, "span.ordered")

	c = New()
	c.ServerSpan("r", 0, 1, 2, 1) // end before start
	hasViolation(t, c, "span.ordered")

	c = New()
	c.ServerSpan("r", 0, 0, 0, 15)
	c.Finish(10) // span outlives the run
	hasViolation(t, c, "span.ordered")
}

func TestSpanNestingViolation(t *testing.T) {
	c := New()
	c.RegisterResource("bus", 1, 1)
	c.ServerSpan("bus", 1, 0, 0, 10)
	c.ServerSpan("bus", 1, 0, 5, 8) // overlaps on a width-1 server
	c.Finish(20)
	hasViolation(t, c, "span.nested")

	// Back-to-back spans (end == next start) are legal.
	c = New()
	c.RegisterResource("bus", 1, 1)
	c.ServerSpan("bus", 1, 0, 0, 5)
	c.ServerSpan("bus", 1, 0, 5, 9)
	if vs := c.Finish(20); len(vs) != 0 {
		t.Fatalf("back-to-back spans flagged: %v", vs)
	}
}

func TestUtilizationViolation(t *testing.T) {
	c := New()
	c.RegisterResource("core", 0, 1)
	// 12 time units of service in a 10-unit run on width 1. Keep each
	// span inside [0, elapsed] and non-overlapping is impossible, so
	// both span.nested and server.utilization may fire; require the
	// utilization one specifically.
	c.ServerSpan("core", 0, 0, 0, 7)
	c.ServerSpan("core", 0, 0, 5, 10)
	c.Finish(10)
	hasViolation(t, c, "server.utilization")
}

func TestDrainViolation(t *testing.T) {
	c := New()
	c.RegisterDrain("flash", func() (int, int) { return 0, 3 })
	c.Finish(10)
	v := hasViolation(t, c, "queues.drained")
	if !strings.Contains(v.Detail, "flash") {
		t.Fatalf("drain diagnostic %q does not name the queue", v.Detail)
	}
}

func TestEnergyViolations(t *testing.T) {
	c := New()
	c.EnergyEvent(energy.PCIe, -1e-12)
	hasViolation(t, c, "energy.nonnegative")

	c = New()
	c.EnergyEvent(energy.PCIe, 1.0)
	if c.AssertNear("energy.ledger", 1.5, c.EnergyTotal(), 1e-9, "total") {
		t.Fatalf("mismatched ledger accepted")
	}
	hasViolation(t, c, "energy.ledger")
}

// The energy hook integrates with a real meter: every deposit must land
// in the shadow ledger so Meter.Total() and the checker always agree.
func TestEnergyMeterHookAgrees(t *testing.T) {
	c := New()
	m := energy.NewMeter(energyConfigForTest())
	deposits := 0
	m.OnAdd = func(comp energy.Component, j float64) {
		deposits++
		c.EnergyEvent(comp, j)
	}
	m.FlashReadPage()
	m.ChannelBytes(4096)
	m.CoreBusy(3 * sim.Microsecond)
	m.FinishStatic(1 * sim.Millisecond)
	if got, want := c.EnergyTotal(), m.Total(); got != want {
		t.Fatalf("shadow ledger %g != meter total %g", got, want)
	}
	if deposits != 4 {
		t.Fatalf("meter made %d deposits, want 4", deposits)
	}
}

func TestViolationSuppression(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		c.KernelStep(sim.Time(10 - i))
	}
	var n int
	for _, v := range c.Violations() {
		if v.Invariant == "kernel.monotone-time" {
			n++
		}
	}
	if n != maxDetailsPerInvariant+1 {
		t.Fatalf("recorded %d violations, want %d detailed + 1 suppression marker", n, maxDetailsPerInvariant)
	}
	last := c.Violations()[len(c.Violations())-1]
	if !strings.Contains(last.Detail, "suppressed") {
		t.Fatalf("missing suppression marker, got %q", last.Detail)
	}
}

func TestAssertNear(t *testing.T) {
	c := New()
	if !c.AssertNear("x", 1000.0000001, 1000, 1e-9, "close") {
		t.Fatalf("relative tolerance not applied for large magnitudes")
	}
	if c.AssertNear("x", 1.1, 1.0, 1e-3, "far") {
		t.Fatalf("out-of-tolerance value accepted")
	}
	if !c.AssertNear("x", 0, 0, 1e-9, "zero") {
		t.Fatalf("exact zero rejected")
	}
}

func TestErrorFormatting(t *testing.T) {
	e := &Error{Violations: []Violation{
		{"a.first", "detail one"},
		{"b.second", "detail two"},
	}}
	msg := e.Error()
	if !strings.Contains(msg, "a.first") || !strings.Contains(msg, "b.second") || !strings.Contains(msg, "1 more") {
		t.Fatalf("unexpected error rendering: %q", msg)
	}
}

func TestTimeHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h timeHeap
	var ref []sim.Time
	for i := 0; i < 500; i++ {
		v := sim.Time(rng.Intn(1000))
		h.push(v)
		ref = append(ref, v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for i, want := range ref {
		if got := h.pop(); got != want {
			t.Fatalf("pop %d = %v, want %v", i, got, want)
		}
	}
}
