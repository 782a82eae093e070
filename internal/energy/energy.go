// Package energy accumulates per-component energy during a simulation,
// reproducing the paper's Figure 19 breakdown and efficiency metrics.
// Constants live in config.Energy; this package only does bookkeeping.
package energy

import (
	"fmt"
	"sort"
	"strings"

	"beacongnn/internal/config"
	"beacongnn/internal/sim"
)

// Component identifies an energy bucket. The grouping follows Figure 19:
// flash backend, SSD frontend (DRAM + controller), accelerator compute,
// and external transfer (PCIe + host).
type Component string

// Energy buckets.
const (
	FlashRead    Component = "flash_read"    // page senses
	FlashRetry   Component = "flash_retry"   // extra Vref-shift read-retry senses
	FlashSample  Component = "flash_sample"  // on-die sampler ops
	ChannelXfer  Component = "channel_xfer"  // flash channel bus
	Router       Component = "router"        // channel-level command routing
	SSDDRAM      Component = "ssd_dram"      // SSD-internal DRAM traffic
	EmbeddedCore Component = "embedded_core" // firmware processing
	AccelCompute Component = "accel"         // spatial accelerator / TPU
	PCIe         Component = "pcie"          // external bus transfer
	HostCPU      Component = "host_cpu"      // host-side processing
	HostDRAM     Component = "host_dram"     // host memory traffic
	Static       Component = "static"        // controller + DRAM background
)

// components lists every bucket in lexicographic order; a Meter's
// bucket array is indexed by position here. Every aggregation iterates
// this order: float addition is not associative, so a fixed summation
// order keeps totals (and every fraction derived from them) identical
// at the last ulp from run to run.
var components = [...]Component{
	AccelCompute, ChannelXfer, EmbeddedCore, FlashRead, FlashRetry,
	FlashSample, HostCPU, HostDRAM, PCIe, Router, SSDDRAM, Static,
}

// Bucket indices into components.
const (
	slotAccel = iota
	slotChannel
	slotCore
	slotFlashRead
	slotFlashRetry
	slotFlashSample
	slotHostCPU
	slotHostDRAM
	slotPCIe
	slotRouter
	slotSSDDRAM
	slotStatic
	numSlots
)

// slotOf returns c's bucket index.
func slotOf(c Component) int {
	for i, k := range components {
		if k == c {
			return i
		}
	}
	panic(fmt.Sprintf("energy: unknown component %q", c))
}

// groupOf maps each bucket to its Figure 19 group (see GroupFractions).
var groupOf = [numSlots]string{
	slotFlashRead: "flash", slotFlashRetry: "flash", slotFlashSample: "flash",
	slotChannel: "transfer", slotRouter: "transfer", slotSSDDRAM: "transfer",
	slotCore: "frontend", slotStatic: "frontend",
	slotAccel: "accel",
	slotPCIe:  "external", slotHostCPU: "external", slotHostDRAM: "external",
}

// Meter accumulates joules per component.
type Meter struct {
	cfg    config.Energy
	joules [numSlots]float64
	// used marks the occupied buckets — those that received at least
	// one deposit, even of zero joules. Only they appear in Breakdown.
	used [numSlots]bool

	// OnAdd, when set, observes every deposit before it lands in a
	// bucket. The invariant checker uses it to keep a shadow ledger and
	// prove the reported total equals the sum of per-event charges. Nil
	// (the default) costs one pointer check per deposit.
	OnAdd func(c Component, j float64)
}

// NewMeter returns a meter using the given constants.
func NewMeter(cfg config.Energy) *Meter {
	return &Meter{cfg: cfg}
}

// Add deposits j joules into the component bucket. It panics on a
// component outside the fixed set above.
func (m *Meter) Add(c Component, j float64) { m.add(slotOf(c), j) }

func (m *Meter) add(slot int, j float64) {
	if m.OnAdd != nil {
		m.OnAdd(components[slot], j)
	}
	m.joules[slot] += j
	m.used[slot] = true
}

// Convenience depositors translating events into joules.

// FlashReadPage records one page sense.
func (m *Meter) FlashReadPage() { m.add(slotFlashRead, m.cfg.FlashReadPage) }

// FlashRetrySenses records n extra Vref-shift read-retry senses.
func (m *Meter) FlashRetrySenses(n int) { m.add(slotFlashRetry, float64(n)*m.cfg.FlashRetrySense) }

// FlashSampleOp records one on-die sampler invocation.
func (m *Meter) FlashSampleOp() { m.add(slotFlashSample, m.cfg.FlashSampleOp) }

// ChannelBytes records n bytes on a flash channel bus.
func (m *Meter) ChannelBytes(n int) { m.add(slotChannel, float64(n)*m.cfg.ChannelPerByte) }

// RouterCmd records one routed sampling command.
func (m *Meter) RouterCmd() { m.add(slotRouter, m.cfg.RouterPerCmd) }

// DRAMBytes records n bytes of SSD DRAM traffic.
func (m *Meter) DRAMBytes(n int) { m.add(slotSSDDRAM, float64(n)*m.cfg.DRAMPerByte) }

// PCIeBytes records n bytes over PCIe.
func (m *Meter) PCIeBytes(n int) { m.add(slotPCIe, float64(n)*m.cfg.PCIePerByte) }

// HostDRAMBytes records n bytes through host memory.
func (m *Meter) HostDRAMBytes(n int) { m.add(slotHostDRAM, float64(n)*m.cfg.HostDRAMPerByte) }

// CoreBusy records t of busy time on one embedded core.
func (m *Meter) CoreBusy(t sim.Time) { m.add(slotCore, t.Seconds()*m.cfg.CorePerSecond) }

// HostBusy records t of busy host-CPU time.
func (m *Meter) HostBusy(t sim.Time) { m.add(slotHostCPU, t.Seconds()*m.cfg.HostCPUPerSecond) }

// AccelMACs records n multiply-accumulates plus b bytes of SRAM traffic.
func (m *Meter) AccelMACs(n int64, b int64) {
	m.add(slotAccel, float64(n)*m.cfg.AccelPerMAC+float64(b)*m.cfg.AccelSRAMPerByte)
}

// FinishStatic charges background power for the elapsed simulated time.
func (m *Meter) FinishStatic(elapsed sim.Time) {
	m.add(slotStatic, elapsed.Seconds()*m.cfg.StaticWatts)
}

// Total returns the summed energy in joules.
func (m *Meter) Total() float64 {
	t := 0.0
	for i, j := range m.joules {
		if m.used[i] {
			t += j
		}
	}
	return t
}

// Of returns one bucket's joules.
func (m *Meter) Of(c Component) float64 { return m.joules[slotOf(c)] }

// Breakdown returns the occupied components sorted by descending energy.
func (m *Meter) Breakdown() []Share {
	total := m.Total()
	out := make([]Share, 0, numSlots)
	for i, j := range m.joules {
		if !m.used[i] {
			continue
		}
		s := Share{Component: components[i], Joules: j}
		if total > 0 {
			s.Fraction = j / total
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Joules > out[j].Joules })
	return out
}

// Share is one component's portion of total energy.
type Share struct {
	Component Component
	Joules    float64
	Fraction  float64
}

// GroupFractions aggregates buckets into the paper's Figure 19 groups —
// flash senses, internal page/result movement ("transfer"), controller
// frontend, accelerator compute, and external (PCIe + host) traffic —
// and returns each group's share of total energy.
func (m *Meter) GroupFractions() map[string]float64 {
	total := m.Total()
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for i, j := range m.joules {
		if m.used[i] {
			out[groupOf[i]] += j / total
		}
	}
	return out
}

// AvgPower returns the mean power over the elapsed time, in watts.
func (m *Meter) AvgPower(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return m.Total() / elapsed.Seconds()
}

// String renders the breakdown for reports.
func (m *Meter) String() string {
	var b strings.Builder
	for _, s := range m.Breakdown() {
		fmt.Fprintf(&b, "%-14s %10.3f mJ  %5.1f%%\n", s.Component, s.Joules*1e3, s.Fraction*100)
	}
	return b.String()
}
