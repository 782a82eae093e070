package energy

import (
	"math"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/sim"
)

func meter() *Meter { return NewMeter(config.Default().Energy) }

func TestDepositors(t *testing.T) {
	m := meter()
	cfg := config.Default().Energy
	m.FlashReadPage()
	m.FlashSampleOp()
	m.ChannelBytes(1000)
	m.RouterCmd()
	m.DRAMBytes(2000)
	m.PCIeBytes(500)
	m.HostDRAMBytes(300)
	m.CoreBusy(sim.Second)
	m.HostBusy(sim.Second / 2)
	m.AccelMACs(1e6, 1e3)

	checks := []struct {
		c    Component
		want float64
	}{
		{FlashRead, cfg.FlashReadPage},
		{FlashSample, cfg.FlashSampleOp},
		{ChannelXfer, 1000 * cfg.ChannelPerByte},
		{Router, cfg.RouterPerCmd},
		{SSDDRAM, 2000 * cfg.DRAMPerByte},
		{PCIe, 500 * cfg.PCIePerByte},
		{HostDRAM, 300 * cfg.HostDRAMPerByte},
		{EmbeddedCore, cfg.CorePerSecond},
		{HostCPU, 0.5 * cfg.HostCPUPerSecond},
		{AccelCompute, 1e6*cfg.AccelPerMAC + 1e3*cfg.AccelSRAMPerByte},
	}
	for _, c := range checks {
		if got := m.Of(c.c); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("%s = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestTotalAndBreakdown(t *testing.T) {
	m := meter()
	m.Add(FlashRead, 3)
	m.Add(PCIe, 1)
	if m.Total() != 4 {
		t.Fatalf("total = %v", m.Total())
	}
	bd := m.Breakdown()
	if bd[0].Component != FlashRead || math.Abs(bd[0].Fraction-0.75) > 1e-12 {
		t.Fatalf("breakdown[0] = %+v", bd[0])
	}
}

func TestGroupFractions(t *testing.T) {
	m := meter()
	m.Add(FlashRead, 2)
	m.Add(ChannelXfer, 2)
	m.Add(SSDDRAM, 3)
	m.Add(PCIe, 3)
	g := m.GroupFractions()
	if math.Abs(g["flash"]-0.2) > 1e-12 || math.Abs(g["transfer"]-0.5) > 1e-12 || math.Abs(g["external"]-0.3) > 1e-12 {
		t.Fatalf("groups = %v", g)
	}
}

func TestStaticAndAvgPower(t *testing.T) {
	m := meter()
	m.FinishStatic(2 * sim.Second)
	want := 2 * config.Default().Energy.StaticWatts
	if math.Abs(m.Of(Static)-want) > 1e-12 {
		t.Fatalf("static = %v, want %v", m.Of(Static), want)
	}
	if math.Abs(m.AvgPower(2*sim.Second)-config.Default().Energy.StaticWatts) > 1e-12 {
		t.Fatalf("avg power = %v", m.AvgPower(2*sim.Second))
	}
	if m.AvgPower(0) != 0 {
		t.Fatal("zero-time power should be 0")
	}
}

func TestStringRenders(t *testing.T) {
	m := meter()
	m.Add(FlashRead, 1)
	if s := m.String(); len(s) == 0 {
		t.Fatal("empty render")
	}
}

// The bucket table must stay in lexicographic order (the summation
// order every aggregate relies on) and each slot constant must name its
// own component.
func TestComponentSlots(t *testing.T) {
	for i := 1; i < len(components); i++ {
		if components[i-1] >= components[i] {
			t.Fatalf("components not sorted: %q before %q", components[i-1], components[i])
		}
	}
	slots := map[int]Component{
		slotAccel: AccelCompute, slotChannel: ChannelXfer, slotCore: EmbeddedCore,
		slotFlashRead: FlashRead, slotFlashRetry: FlashRetry, slotFlashSample: FlashSample,
		slotHostCPU: HostCPU, slotHostDRAM: HostDRAM, slotPCIe: PCIe,
		slotRouter: Router, slotSSDDRAM: SSDDRAM, slotStatic: Static,
	}
	if len(slots) != numSlots || len(components) != numSlots {
		t.Fatalf("%d slots, %d components, want %d", len(slots), len(components), numSlots)
	}
	for slot, c := range slots {
		if components[slot] != c {
			t.Errorf("slot %d holds %q, want %q", slot, components[slot], c)
		}
	}
}

// Breakdown lists exactly the occupied buckets: a zero-joule deposit
// occupies its bucket, an untouched bucket never appears. Ties break
// lexicographically.
func TestBreakdownOccupiedBuckets(t *testing.T) {
	m := meter()
	m.Add(Router, 0)
	m.Add(PCIe, 2)
	m.Add(FlashRead, 2)
	bd := m.Breakdown()
	want := []Component{FlashRead, PCIe, Router}
	if len(bd) != len(want) {
		t.Fatalf("breakdown = %+v, want components %v", bd, want)
	}
	for i, c := range want {
		if bd[i].Component != c {
			t.Fatalf("breakdown[%d] = %q, want %q", i, bd[i].Component, c)
		}
	}
	if len(meter().Breakdown()) != 0 {
		t.Fatal("empty meter has occupied buckets")
	}
}

func TestAddUnknownComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown component accepted")
		}
	}()
	meter().Add(Component("bogus"), 1)
}
