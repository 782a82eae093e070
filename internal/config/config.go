// Package config centralizes every tunable of the BeaconGNN simulation:
// SSD geometry and timing (the paper's Table II), firmware and host
// processing costs, accelerator shapes, GNN task parameters, and energy
// constants. Exact Table II cell values are not present in the provided
// paper text; the defaults below are chosen to satisfy every quantitative
// anchor the text does give (see DESIGN.md §1) and are printed by
// `beaconbench -exp table2`.
package config

import (
	"fmt"
	"math"

	"beacongnn/internal/sim"
)

// Flash describes the SSD backend geometry and timing.
type Flash struct {
	Channels       int      // flash channels (paper base: 16)
	DiesPerChannel int      // dies per channel (paper base: 8 → 128 dies)
	PlanesPerDie   int      // planes sharing one die's sampler
	BlocksPerDie   int      // physical blocks per die
	PagesPerBlock  int      // pages per block
	PageSize       int      // bytes (paper base: 4 KB)
	ChannelBW      float64  // channel bus bandwidth, bytes/s (base: 800 MB/s)
	ReadLatency    sim.Time // sense latency: 3 µs ULL, 20 µs traditional
	ProgramLatency sim.Time
	EraseLatency   sim.Time
	CmdOverhead    sim.Time // per-command channel protocol overhead
}

// TotalDies returns the die count across all channels.
func (f Flash) TotalDies() int { return f.Channels * f.DiesPerChannel }

// PagesPerDie returns the page count of one die.
func (f Flash) PagesPerDie() int { return f.BlocksPerDie * f.PagesPerBlock }

// TotalBytes returns the raw capacity in bytes.
func (f Flash) TotalBytes() int64 {
	return int64(f.TotalDies()) * int64(f.PagesPerDie()) * int64(f.PageSize)
}

// PageTransferTime returns the channel-bus occupancy of one full page.
func (f Flash) PageTransferTime() sim.Time {
	return sim.Time(float64(f.PageSize) / f.ChannelBW * float64(sim.Second))
}

// TransferTime returns the channel-bus occupancy of n bytes plus the
// fixed command overhead.
func (f Flash) TransferTime(n int) sim.Time {
	return f.CmdOverhead + sim.Time(float64(n)/f.ChannelBW*float64(sim.Second))
}

// Validate reports whether the flash geometry is usable.
func (f Flash) Validate() error {
	switch {
	case f.Channels <= 0 || f.DiesPerChannel <= 0:
		return fmt.Errorf("config: channels/dies must be positive (%d×%d)", f.Channels, f.DiesPerChannel)
	case f.PageSize < 512:
		return fmt.Errorf("config: page size %d too small", f.PageSize)
	case f.PageSize&(f.PageSize-1) != 0:
		return fmt.Errorf("config: page size %d is not a power of two", f.PageSize)
	case f.PageSize > 32768:
		// DirectGraph section lengths are 16-bit (directgraph.MaxPageSize).
		return fmt.Errorf("config: page size %d exceeds 32768", f.PageSize)
	case f.BlocksPerDie <= 0 || f.PagesPerBlock <= 0:
		return fmt.Errorf("config: blocks/pages must be positive")
	case f.PlanesPerDie < 1:
		return fmt.Errorf("config: planes per die must be positive, got %d", f.PlanesPerDie)
	case !positive(f.ChannelBW):
		return fmt.Errorf("config: channel bandwidth must be finite and positive")
	case f.ReadLatency <= 0:
		return fmt.Errorf("config: read latency must be positive")
	}
	return nil
}

// Firmware describes the SSD embedded-processor model. Every cost is the
// core-occupancy time of one operation; the cores are a shared pool, so
// these costs are what make firmware the bottleneck in BG-SP/BG-DGSP.
type Firmware struct {
	Cores             int      // embedded cores (base: 4, swept 1–8 in Fig. 18c)
	PollCost          sim.Time // I/O poller: fetch/complete one host request
	TranslateCost     sim.Time // FTL LPA→PPA lookup for one request
	FlashCmdCost      sim.Time // flash scheduler: queue mgmt + DMA config + status poll per flash command
	ResultParseCost   sim.Time // classify one sampling result arriving in DRAM
	SampleCostPerNode sim.Time // firmware-based neighbor sampling, per sampled neighbor (BG-1/BG-DG)
	SampleCostFixed   sim.Time // firmware-based sampling, fixed per parent node
}

// Host describes host-side costs for platforms that keep the host on the
// control path (CC, SmartSage, GList, BG-1, and hop barriers generally).
type Host struct {
	Cores          int      // host CPU threads devoted to the GNN task
	IOStackCost    sim.Time // filesystem + NVMe driver software per dependent I/O
	BatchedIOCost  sim.Time // per-I/O cost when many independent reads batch (io_uring-style)
	TranslateCost  sim.Time // node-index → LPA metadata lookup, per node
	HopRoundTrip   sim.Time // fixed host↔SSD latency per hop barrier
	SampleCostNode sim.Time // host CPU sampling cost per sampled neighbor (CC)
}

// DieSampler describes the on-die sampler's processing time (Section
// V-A) and the channel router's hardware latencies (Section V-B).
type DieSampler struct {
	Fixed       sim.Time // section iterate + setup per command
	PerDraw     sim.Time // per sampled neighbor
	CrossbarLat sim.Time // router crossbar hop
	ParseLat    sim.Time // data-stream parser per result
}

// Link is a bandwidth/latency description of DRAM or PCIe.
type Link struct {
	Bandwidth float64 // bytes/s
	Latency   sim.Time
}

// Accel describes a systolic-array accelerator (ScaleSim-style).
type Accel struct {
	Rows, Cols  int     // systolic array shape
	VectorLanes int     // 1-D array width for aggregation
	ClockHz     float64 // core clock
	SRAMBytes   int     // on-chip buffer
}

// MACs returns the array's multiply-accumulate count.
func (a Accel) MACs() int { return a.Rows * a.Cols }

// GNN describes the task (Section VII-A).
type GNN struct {
	Hops      int // sampling hops (base: 3)
	Fanout    int // neighbors per hop (base: 3)
	HiddenDim int // intermediate embedding dim (base: 128)
	BatchSize int // mini-batch targets (base: 64, swept 32–256)

	// TargetSkew selects mini-batch targets from a Zipf distribution
	// with this exponent (0 = uniform, the paper's setting). Skewed
	// selection models hot-node inference workloads, where repeated
	// targets concentrate load on a few dies.
	TargetSkew float64

	// Training adds the backward pass (input- and weight-gradient GEMMs
	// plus gradient scatter) to each mini-batch's compute stage.
	Training bool
}

// SubgraphNodes returns nodes per target subgraph (paper: 40).
func (g GNN) SubgraphNodes() int {
	total, layer := 1, 1
	for h := 0; h < g.Hops; h++ {
		layer *= g.Fanout
		total += layer
	}
	return total
}

// Energy holds the per-event energy constants used for Figure 19. Units
// are joules. They are calibrated so component shares match the paper's
// reported breakdown (see EXPERIMENTS.md), standing in for the authors'
// McPAT/DRAMPower/CACTI toolchain.
type Energy struct {
	FlashReadPage    float64 // J per page sense
	FlashRetrySense  float64 // J per extra Vref-shift read-retry sense
	FlashSampleOp    float64 // J per on-die sampler invocation
	ChannelPerByte   float64 // J per byte moved on a flash channel
	DRAMPerByte      float64 // J per byte read or written in SSD DRAM
	PCIePerByte      float64 // J per byte over PCIe (incl. host DMA)
	HostDRAMPerByte  float64 // J per byte through host memory
	CorePerSecond    float64 // W drawn by one busy embedded core
	HostCPUPerSecond float64 // W drawn by host CPU while processing GNN ops
	AccelPerMAC      float64 // J per multiply-accumulate
	AccelSRAMPerByte float64 // J per SRAM access byte
	RouterPerCmd     float64 // J per routed sampling command
	StaticWatts      float64 // SSD controller + DRAM background power
}

// Validate rejects a non-finite or negative constant: one NaN would make
// every energy and power figure NaN with no error.
func (e Energy) Validate() error {
	for _, x := range [...]float64{
		e.FlashReadPage, e.FlashRetrySense, e.FlashSampleOp, e.ChannelPerByte,
		e.DRAMPerByte, e.PCIePerByte, e.HostDRAMPerByte, e.CorePerSecond,
		e.HostCPUPerSecond, e.AccelPerMAC, e.AccelSRAMPerByte, e.RouterPerCmd,
		e.StaticWatts,
	} {
		if !nonNegative(x) {
			return fmt.Errorf("config: energy constant %v must be finite and non-negative", x)
		}
	}
	return nil
}

// Ablation switches off individual BeaconGNN design elements, for the
// ablation benchmarks that quantify each one's contribution.
type Ablation struct {
	NoPipeline bool // disable mini-batch prep/compute overlap (§VI-D)
	NoCoalesce bool // disable secondary-section command coalescing (§V-A)
}

// Fault configures the NAND reliability model (internal/fault): per-die
// RBER as a function of P/E cycles plus a retention term, ECC tiers
// (hard decode → read-retry → firmware soft decode → uncorrectable),
// the firmware recovery policy for uncorrectable pages, and injected
// die/channel outages. Enabled=false (the default) bypasses the model
// entirely: simulations are byte-identical to a build without it.
type Fault struct {
	Enabled bool

	// RBER curve: rber(block) = BaseRBER + WearRBERPerPE·PE + RetentionRBER.
	BaseRBER      float64 // raw bit error rate of a fresh block
	WearRBERPerPE float64 // added RBER per program/erase cycle
	RetentionRBER float64 // added RBER from retention age

	// ECC tiers, in correctable raw bit errors per page. A read whose
	// drawn error count is ≤ HardECCBits decodes on the fly; ≤ RetryECCBits
	// after extra Vref-shift senses; ≤ SoftECCBits after firmware soft
	// decode; beyond that the page is uncorrectable.
	HardECCBits  int
	RetryECCBits int
	SoftECCBits  int

	MaxRetrySenses int      // Vref-shift senses before falling to soft decode
	RetrySenseTime sim.Time // extra die-occupancy time per retry sense
	SoftDecodeTime sim.Time // firmware core time per soft-decoded page

	// Uncorrectable-page recovery policy (graceful degradation).
	MaxRecoveryAttempts int      // bounded re-sense attempts before retirement
	RetryBackoff        sim.Time // base backoff, doubled per attempt
	CmdDeadline         sim.Time // per-command recovery deadline (0 = none)
	RelocateAfterRetire int      // reserved-region retirements that trigger a
	// DirectGraph relocation (0 disables relocation; remap-only)

	// Injected wear and outages.
	InitialPECycles int   // pre-existing P/E cycles on every block
	DeadDies        []int // die indexes failed from the start
	DeadChannels    []int // channel indexes failed from the start

	// Uncorrectable storm: between StormStart and StormEnd (simulated
	// time), StormRBER is added to every block's RBER — a transient
	// device-wide degradation (temperature excursion, read-disturb
	// burst) the chaos harness uses to drive the recovery ladder hard
	// for a bounded window. StormRBER = 0 (the default) disables the
	// window entirely.
	StormStart sim.Time
	StormEnd   sim.Time
	StormRBER  float64

	// SpareRows is how many block rows at the top of the device are held
	// back as remap targets for retired pages.
	SpareRows int
}

// DefaultFault returns the reliability model's default tuning with the
// model itself switched off. The ECC tiers approximate a 4 KB-page
// LDPC pipeline; BaseRBER matches ULL NAND (< 1e-7 per Section VI-F).
func DefaultFault() Fault {
	return Fault{
		Enabled:             false,
		BaseRBER:            1e-7,
		WearRBERPerPE:       5e-10,
		RetentionRBER:       0,
		HardECCBits:         72,
		RetryECCBits:        120,
		SoftECCBits:         200,
		MaxRetrySenses:      5,
		RetrySenseTime:      1500 * sim.Nanosecond,
		SoftDecodeTime:      10 * sim.Microsecond,
		MaxRecoveryAttempts: 3,
		RetryBackoff:        2 * sim.Microsecond,
		CmdDeadline:         2 * sim.Millisecond,
		RelocateAfterRetire: 1,
		SpareRows:           2,
	}
}

// Validate checks the fault section against the flash geometry.
func (f Fault) Validate(fl Flash) error {
	if !f.Enabled {
		return nil
	}
	switch {
	case !(f.BaseRBER >= 0 && f.BaseRBER < 0.5):
		return fmt.Errorf("config: base RBER %v out of range [0, 0.5)", f.BaseRBER)
	case !nonNegative(f.WearRBERPerPE) || !nonNegative(f.RetentionRBER):
		return fmt.Errorf("config: RBER terms must be finite and non-negative")
	case f.HardECCBits <= 0 || f.RetryECCBits < f.HardECCBits || f.SoftECCBits < f.RetryECCBits:
		return fmt.Errorf("config: ECC tiers must be positive and ascending (%d/%d/%d)",
			f.HardECCBits, f.RetryECCBits, f.SoftECCBits)
	case f.MaxRetrySenses <= 0 || f.RetrySenseTime < 0:
		return fmt.Errorf("config: retry senses must be positive")
	case f.SoftDecodeTime < 0 || f.RetryBackoff < 0 || f.CmdDeadline < 0:
		return fmt.Errorf("config: fault timing costs must be non-negative")
	case f.MaxRecoveryAttempts < 0 || f.RelocateAfterRetire < 0:
		return fmt.Errorf("config: recovery policy counts must be non-negative")
	case f.InitialPECycles < 0:
		return fmt.Errorf("config: initial P/E cycles must be non-negative")
	case f.SpareRows < 0 || f.SpareRows >= fl.BlocksPerDie:
		return fmt.Errorf("config: spare rows %d outside [0, %d)", f.SpareRows, fl.BlocksPerDie)
	case !(f.StormRBER >= 0 && f.StormRBER < 0.5):
		return fmt.Errorf("config: storm RBER %v out of range [0, 0.5)", f.StormRBER)
	case f.StormRBER > 0 && (f.StormStart < 0 || f.StormEnd <= f.StormStart):
		return fmt.Errorf("config: storm window [%v, %v) is empty", f.StormStart, f.StormEnd)
	}
	for _, d := range f.DeadDies {
		if d < 0 || d >= fl.TotalDies() {
			return fmt.Errorf("config: dead die %d outside [0, %d)", d, fl.TotalDies())
		}
	}
	dead := 0
	for _, c := range f.DeadChannels {
		if c < 0 || c >= fl.Channels {
			return fmt.Errorf("config: dead channel %d outside [0, %d)", c, fl.Channels)
		}
		dead++
	}
	if dead >= fl.Channels {
		return fmt.Errorf("config: all %d channels dead", fl.Channels)
	}
	return nil
}

// Sched selects the I/O scheduling policy the flash backend applies to
// its die, sampler, and channel servers (DESIGN.md §11). The empty
// policy (and "fifo") keeps the default strict-FIFO service — the
// simulated event sequence is then byte-identical to a build without
// the scheduling layer.
type Sched struct {
	// Policy: "" or "fifo" (default FIFO), "sjf" (shortest job first),
	// "edf" (earliest deadline first), "totalfit" (DP batch planner).
	Policy string

	// DeadlineBudget is the EDF completion target per command, measured
	// from command creation at the platform layer (firmware issue time);
	// requests reaching a server without an explicit deadline fall back
	// to arrival + budget.
	DeadlineBudget sim.Time

	// MaxBatch caps one total-fit batch; BreakPenalty is the quadratic
	// per-batch-length badness term (0 = windowed SJF, large = FIFO).
	MaxBatch     int
	BreakPenalty sim.Time
}

// SchedPolicies lists the accepted policy names.
func SchedPolicies() []string { return []string{"fifo", "sjf", "edf", "totalfit"} }

// DefaultSched returns the scheduling defaults: FIFO policy with tuned
// parameters ready for the non-FIFO policies when one is selected. The
// EDF budget sits near the p99 command lifetime of the base platforms;
// the total-fit defaults keep planning cheap on die-depth queues.
func DefaultSched() Sched {
	return Sched{
		Policy:         "",
		DeadlineBudget: 50 * sim.Microsecond,
		MaxBatch:       16,
		BreakPenalty:   200 * sim.Nanosecond,
	}
}

// Validate checks the scheduling section.
func (s Sched) Validate() error {
	switch s.Policy {
	case "", "fifo", "sjf", "totalfit":
	case "edf":
		if s.DeadlineBudget <= 0 {
			return fmt.Errorf("config: EDF deadline budget must be positive, got %v", s.DeadlineBudget)
		}
	default:
		return fmt.Errorf("config: unknown sched policy %q (use one of %v)", s.Policy, SchedPolicies())
	}
	if s.Policy == "totalfit" {
		if s.MaxBatch < 1 {
			return fmt.Errorf("config: total-fit max batch must be positive, got %d", s.MaxBatch)
		}
		if s.BreakPenalty < 0 {
			return fmt.Errorf("config: total-fit break penalty must be non-negative, got %v", s.BreakPenalty)
		}
	}
	return nil
}

// Config is the complete platform configuration.
type Config struct {
	Flash      Flash
	Firmware   Firmware
	Host       Host
	DieSampler DieSampler
	DRAM       Link // SSD-internal DRAM
	PCIe       Link
	SSDAccel   Accel // bus-attached spatial accelerator
	TPU        Accel // discrete server-scale accelerator (CC baseline)
	GNN        GNN
	Energy     Energy
	Ablation   Ablation
	Fault      Fault
	Sched      Sched
	Seed       uint64
}

// Default returns the paper's base configuration (Table II as
// reconstructed in DESIGN.md).
func Default() Config {
	return Config{
		Flash: Flash{
			Channels:       16,
			DiesPerChannel: 8,
			PlanesPerDie:   2,
			BlocksPerDie:   512,
			PagesPerBlock:  256,
			PageSize:       4096,
			ChannelBW:      800e6,
			ReadLatency:    3 * sim.Microsecond, // ULL Z-NAND
			ProgramLatency: 100 * sim.Microsecond,
			EraseLatency:   1 * sim.Millisecond,
			CmdOverhead:    200 * sim.Nanosecond,
		},
		Firmware: Firmware{
			Cores:             4,
			PollCost:          500 * sim.Nanosecond,
			TranslateCost:     50 * sim.Nanosecond,
			FlashCmdCost:      320 * sim.Nanosecond,
			ResultParseCost:   100 * sim.Nanosecond,
			SampleCostPerNode: 150 * sim.Nanosecond,
			SampleCostFixed:   400 * sim.Nanosecond,
		},
		Host: Host{
			Cores:          2,
			IOStackCost:    6 * sim.Microsecond,
			BatchedIOCost:  1500 * sim.Nanosecond,
			TranslateCost:  80 * sim.Nanosecond,
			HopRoundTrip:   10 * sim.Microsecond,
			SampleCostNode: 120 * sim.Nanosecond,
		},
		DieSampler: DieSampler{
			Fixed:       300 * sim.Nanosecond,
			PerDraw:     20 * sim.Nanosecond,
			CrossbarLat: 50 * sim.Nanosecond,
			ParseLat:    50 * sim.Nanosecond,
		},
		DRAM: Link{Bandwidth: 12.8e9, Latency: 120 * sim.Nanosecond},
		PCIe: Link{Bandwidth: 7.88e9, Latency: 900 * sim.Nanosecond}, // Gen4 ×4
		SSDAccel: Accel{
			Rows: 32, Cols: 32, VectorLanes: 128,
			ClockHz: 1e9, SRAMBytes: 4 << 20,
		},
		TPU: Accel{
			Rows: 128, Cols: 128, VectorLanes: 1024,
			ClockHz: 940e6, SRAMBytes: 24 << 20,
		},
		GNN:   GNN{Hops: 3, Fanout: 3, HiddenDim: 128, BatchSize: 64},
		Fault: DefaultFault(),
		Sched: DefaultSched(),
		// Energy constants calibrated to Figure 19's component shares
		// (see EXPERIMENTS.md). Host CPU compute energy is excluded
		// from the device-plus-link accounting, matching the paper's
		// "transfer data outside storage" framing; set HostCPUPerSecond
		// to include it.
		Energy: Energy{
			FlashReadPage:    0.4e-6,
			FlashRetrySense:  0.3e-6,
			FlashSampleOp:    0.02e-6,
			ChannelPerByte:   200e-12,
			DRAMPerByte:      120e-12,
			PCIePerByte:      500e-12,
			HostDRAMPerByte:  150e-12,
			CorePerSecond:    0.45,
			HostCPUPerSecond: 0,
			AccelPerMAC:      1.2e-12,
			AccelSRAMPerByte: 2.0e-12,
			RouterPerCmd:     0.002e-6,
			StaticWatts:      1.0,
		},
		Seed: 0xBEAC0,
	}
}

// Traditional returns the default config with a conventional (20 µs read)
// SSD backend, used for Section VII-E.
func Traditional() Config {
	c := Default()
	c.Flash.ReadLatency = 20 * sim.Microsecond
	return c
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.Flash.Validate(); err != nil {
		return err
	}
	switch {
	case c.Firmware.Cores <= 0:
		return fmt.Errorf("config: firmware cores must be positive")
	case c.Host.Cores < 1:
		// Fig. 15f divides host time by this width.
		return fmt.Errorf("config: host cores must be positive, got %d", c.Host.Cores)
	case c.DieSampler.Fixed < 0 || c.DieSampler.PerDraw < 0 || c.DieSampler.CrossbarLat < 0 || c.DieSampler.ParseLat < 0:
		return fmt.Errorf("config: die sampler and router latencies must be non-negative")
	case !positive(c.DRAM.Bandwidth) || !positive(c.PCIe.Bandwidth):
		return fmt.Errorf("config: link bandwidth must be finite and positive")
	case c.GNN.Hops <= 0 || c.GNN.Fanout <= 0 || c.GNN.BatchSize <= 0:
		return fmt.Errorf("config: GNN parameters must be positive")
	case !nonNegative(c.GNN.TargetSkew):
		// A NaN skew would fail the sampler's skew > 0 test and draw
		// uniform targets without a word.
		return fmt.Errorf("config: GNN target skew %v must be finite and non-negative", c.GNN.TargetSkew)
	case c.SSDAccel.Rows <= 0 || c.SSDAccel.Cols <= 0 || !positive(c.SSDAccel.ClockHz):
		return fmt.Errorf("config: accelerator shape must be positive")
	case !positive(c.TPU.ClockHz):
		return fmt.Errorf("config: TPU clock must be finite and positive")
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if err := c.Sched.Validate(); err != nil {
		return err
	}
	return c.Fault.Validate(c.Flash)
}

// positive reports whether x is finite and above zero. A bare x <= 0
// check lets NaN and +Inf through.
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// nonNegative reports whether x is finite and at or above zero.
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }
