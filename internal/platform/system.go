package platform

import (
	"context"
	"fmt"

	"beacongnn/internal/accel"
	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/dram"
	"beacongnn/internal/energy"
	"beacongnn/internal/fault"
	"beacongnn/internal/firmware"
	"beacongnn/internal/flash"
	"beacongnn/internal/ftl"
	"beacongnn/internal/graph"
	"beacongnn/internal/invariant"
	"beacongnn/internal/metrics"
	"beacongnn/internal/nvme"
	"beacongnn/internal/router"
	"beacongnn/internal/sampler"
	"beacongnn/internal/sim"
	"beacongnn/internal/xrand"
)

// System is one simulated platform instance bound to a dataset.
type System struct {
	kind Kind
	caps Caps
	cfg  config.Config
	inst *dataset.Instance

	k       *sim.Kernel
	backend *flash.Backend
	fw      *firmware.Processor
	mem     *dram.DRAM
	qp      *nvme.QueuePair
	host    *sim.Server
	rtr     *router.Router
	ssdAcc  *accel.Model
	tpu     *accel.Model
	accelQ  *sim.Server
	meter   *energy.Meter
	coll    *metrics.Collector

	layout     directgraph.Layout
	dieTRNG    []*xrand.Source
	rng        *xrand.Source
	samplerCfg sampler.Config
	batches    map[int32]*batchState

	// build is the DirectGraph image this system reads. It aliases
	// inst.Build normally; with the fault model enabled it is a private
	// clone, because recovery mutates it (remaps, relocation) and the
	// instance is shared across memoized parallel experiments.
	build *directgraph.Build
	ftl   *ftl.FTL        // nil unless cfg.Fault.Enabled
	inj   *fault.Injector // nil unless cfg.Fault.Enabled

	failErr    error // first unrecoverable device error; set via fail()
	retireWear int   // wear-caused retirements since the last relocation

	// schedBudget is cfg.Sched.DeadlineBudget when the EDF policy is
	// active, 0 otherwise; see ioDeadline in sched.go.
	schedBudget sim.Time

	// ctx, when bound, lets the event loop observe request abandonment;
	// see BindContext.
	ctx context.Context

	// chk is the invariant checker; nil unless EnableChecks was called.
	// Checking only observes: a checked run's results are identical.
	chk *invariant.Checker

	// targetSource, when set, overrides mini-batch target selection —
	// used for trace replay (internal/trace).
	targetSource func(batch int) []graph.NodeID

	// onSample, when set, receives every functional sampling event from
	// the die-level data path: the parent graph node, the child graph
	// node whose primary section the generated command addresses, and
	// the child's hop. Used by the end-to-end validation tests.
	onSample func(parent, child uint32, hop int)

	pcieBytes uint64 // payload bytes moved over PCIe (excl. SQE/CQE)
}

// BindContext ties the simulation's event loop to ctx: the kernel polls
// ctx.Err every few thousand events and Run returns ctx.Err() once it
// fires, so an abandoned request stops burning CPU mid-simulation
// instead of running to completion. Must be called before Run; a nil or
// Background context leaves the loop unobserved.
func (s *System) BindContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	s.ctx = ctx
	s.k.SetCancel(func() bool { return ctx.Err() != nil })
	if s.cfg.Fault.Enabled {
		// Recovery ladders and storms stretch per-event wall cost, and
		// faulted runs are exactly the ones hedged duplicates and
		// draining daemons abandon — poll finer so cancellation stays
		// prompt. Observation only; results are stride-independent.
		s.k.SetCancelStride(256)
	}
}

// SetSampleObserver installs a functional-sampling observer (die-level
// platforms only); pass nil to remove it.
func (s *System) SetSampleObserver(f func(parent, child uint32, hop int)) { s.onSample = f }

// SetTargetSource overrides target selection with an external source,
// e.g. a recorded trace. Each call must return exactly BatchSize ids.
func (s *System) SetTargetSource(f func(batch int) []graph.NodeID) { s.targetSource = f }

// SetTracer attaches a request tracer to every contended resource in the
// system: flash dies/samplers/channels, firmware cores, the DRAM port,
// the PCIe link, host CPU cores, and the accelerator queue. Must be
// called before Run; pass nil to detach. With checks enabled the
// checker stays attached, teed with t.
func (s *System) SetTracer(t sim.Tracer) {
	if s.chk != nil {
		t = sim.TeeTracer(s.chk, t)
	}
	s.backend.SetTracer(t)
	s.fw.SetTracer(t)
	s.mem.SetTracer(t)
	s.qp.SetTracer(t)
	s.host.SetTracer(t, "host.cpu", 0)
	s.accelQ.SetTracer(t, "accel.queue", 0)
}

// NewSystem wires a platform over a materialized dataset instance.
func NewSystem(kind Kind, cfg config.Config, inst *dataset.Instance, timelinePoints int) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inst == nil || inst.Build == nil || inst.Build.Pages == nil {
		return nil, fmt.Errorf("platform: dataset instance must be materialized")
	}
	k := sim.New()
	backend, err := flash.New(k, cfg.Flash, timelinePoints)
	if err != nil {
		return nil, err
	}
	mkSched, err := newScheduler(cfg.Sched)
	if err != nil {
		return nil, err
	}
	if mkSched != nil {
		backend.SetSchedulers(mkSched)
	}
	fw, err := firmware.NewProcessor(k, cfg.Firmware)
	if err != nil {
		return nil, err
	}
	mem, err := dram.New(k, cfg.DRAM)
	if err != nil {
		return nil, err
	}
	qp, err := nvme.New(k, cfg.PCIe, 1024)
	if err != nil {
		return nil, err
	}
	ssdAcc, err := accel.New(cfg.SSDAccel)
	if err != nil {
		return nil, err
	}
	tpu, err := accel.New(cfg.TPU)
	if err != nil {
		return nil, err
	}
	hostCores := cfg.Host.Cores
	if hostCores <= 0 {
		hostCores = 4
	}
	s := &System{
		kind: kind, caps: CapsOf(kind), cfg: cfg, inst: inst,
		k: k, backend: backend, fw: fw, mem: mem, qp: qp,
		host:   sim.NewServer(k, hostCores),
		ssdAcc: ssdAcc, tpu: tpu,
		accelQ: sim.NewServer(k, 1),
		meter:  energy.NewMeter(cfg.Energy),
		coll:   metrics.NewCollector(),
		layout: inst.Build.Layout,
		rng:    xrand.New(cfg.Seed ^ uint64(kind)<<32),
		samplerCfg: sampler.Config{
			Hops: cfg.GNN.Hops, Fanout: cfg.GNN.Fanout,
			FeatureDim: inst.Desc.FeatureDim,
			NoCoalesce: cfg.Ablation.NoCoalesce,
		},
	}
	if s.layout.PageSize != cfg.Flash.PageSize {
		return nil, fmt.Errorf("platform: dataset built with %d B pages, flash has %d B", s.layout.PageSize, cfg.Flash.PageSize)
	}
	if cfg.Sched.Policy == "edf" {
		s.schedBudget = cfg.Sched.DeadlineBudget
	}
	s.build = inst.Build
	if cfg.Fault.Enabled {
		// Recovery mutates the image (spare remaps, relocation), so this
		// system works on a private clone of the shared instance.
		s.build = inst.Build.Clone()
		s.ftl = ftl.New(cfg.Flash)
		if _, _, err := s.ftl.ReserveForPages(len(s.build.Pages)); err != nil {
			return nil, fmt.Errorf("platform: fault model: %w", err)
		}
		if err := s.ftl.ReserveSpares(cfg.Fault.SpareRows); err != nil {
			return nil, fmt.Errorf("platform: fault model: %w", err)
		}
		s.inj = fault.NewInjector(cfg.Fault, cfg.Flash, cfg.Seed)
		f := s.ftl
		s.inj.SetWearSource(func(die, block int) int {
			return f.EraseCount(ftl.BlockID{Die: die, Block: block})
		})
		backend.FaultInjector = s.inj
		backend.OnRetrySense = s.meter.FlashRetrySenses
	}
	// Per-die TRNGs, forked deterministically from the experiment seed.
	master := xrand.New(cfg.Seed)
	s.dieTRNG = make([]*xrand.Source, cfg.Flash.TotalDies())
	for i := range s.dieTRNG {
		s.dieTRNG[i] = master.Fork()
	}
	// Energy hooks.
	s.backend.OnRead = s.meter.FlashReadPage
	s.backend.OnTransfer = s.meter.ChannelBytes
	s.fw.OnBusy = s.meter.CoreBusy
	s.mem.OnBytes = s.meter.DRAMBytes
	s.qp.OnPCIeBytes = s.meter.PCIeBytes
	s.qp.Device = func(cmd nvme.Command) {} // commands handled inline by flows
	s.batches = make(map[int32]*batchState)
	if s.caps.HWRouting {
		s.rtr = router.New(k, backend, cfg.DieSampler.CrossbarLat, cfg.DieSampler.ParseLat)
		s.rtr.OnRouted = s.meter.RouterCmd
		// The hardware data path of BG-2: die executes, feature DMAs to
		// DRAM without firmware, children stream back through the
		// crossbar, and the batch counters advance — no embedded core
		// touches any of it.
		s.rtr.Exec = func(cmd sampler.Command, release func(), done func([]sampler.Command)) {
			b, ok := s.batches[cmd.Batch]
			if !ok {
				panic(fmt.Sprintf("platform: routed command for unknown batch %d", cmd.Batch))
			}
			op := rtrOpPool.Get()
			op.s, op.b, op.cmd, op.done = s, b, cmd, done
			b.execDie(cmd, release, op.fnExecDone)
		}
	}
	return s, nil
}

// Kind returns the platform kind.
func (s *System) Kind() Kind { return s.kind }

// hostDo charges host CPU time and accounts it as the host phase.
func (s *System) hostDo(cost sim.Time, done func()) {
	s.coll.AddPhase(metrics.PhaseHost, cost)
	s.meter.HostBusy(cost)
	s.host.Submit(cost, done)
}

// pcieData moves n bytes over PCIe with phase accounting.
func (s *System) pcieData(n int, done func()) {
	s.pcieBytes += uint64(n)
	s.coll.AddPhase(metrics.PhasePCIe, sim.Time(float64(n)/s.cfg.PCIe.Bandwidth*float64(sim.Second))+s.cfg.PCIe.Latency)
	s.meter.HostDRAMBytes(n)
	s.qp.TransferData(n, done)
}

// dramWrite/dramRead move bytes through SSD DRAM with phase accounting.
func (s *System) dramWrite(n int, done func()) {
	s.coll.AddPhase(metrics.PhaseDRAM, sim.Time(float64(n)/s.cfg.DRAM.Bandwidth*float64(sim.Second)))
	s.mem.Write(n, done)
}

func (s *System) dramRead(n int, done func()) {
	s.coll.AddPhase(metrics.PhaseDRAM, sim.Time(float64(n)/s.cfg.DRAM.Bandwidth*float64(sim.Second)))
	s.mem.Read(n, done)
}

// fwPhase wraps a firmware op with phase accounting.
func (s *System) fwPhase(cost sim.Time) { s.coll.AddPhase(metrics.PhaseFirmware, cost) }

// Result is everything a run measures; the beaconbench tool formats
// these into the paper's tables and figures.
type Result struct {
	Platform string
	Dataset  string

	Elapsed    sim.Time
	Targets    int
	Batches    int
	Throughput float64 // targets per second

	FlashReads   uint64
	BusBytes     uint64
	PCIeBytes    uint64  // payload bytes that crossed the host interface
	MeanDies     float64 // time-weighted mean active dies
	MeanChannels float64
	DieTimeline  []sim.UtilPoint
	ChanTimeline []sim.UtilPoint

	Phases       []metrics.PhaseShare
	PhaseLatency []metrics.PhaseQuantile // per-phase p50/p95/p99 of event durations
	CmdBreakdown map[metrics.Phase]sim.Time
	CmdLifetime  sim.Time
	CmdP50       sim.Time // median command lifetime
	CmdP99       sim.Time // tail command lifetime
	Commands     uint64
	HopSpans     []metrics.HopSpan
	HopOverlap   float64

	EnergyJ     float64
	EnergyByCmp []energy.Share
	EnergyGroup map[string]float64
	AvgPowerW   float64
	// Efficiency is throughput per watt (targets/s/W), Fig. 19's metric.
	Efficiency float64

	// Faults holds the reliability counters; nil when the fault model is
	// disabled (so default-config reports are unchanged).
	Faults *fault.Stats
}

// Run simulates numBatches mini-batches and returns the measurements.
func (s *System) Run(numBatches int) (*Result, error) {
	if numBatches <= 0 {
		return nil, fmt.Errorf("platform: numBatches must be positive")
	}
	engine := firmware.NewEngine(s.k, !s.cfg.Ablation.NoPipeline)
	finished := false
	engine.Run(numBatches,
		func(i int, done func()) { s.prepBatch(i, done) },
		func(i int, done func()) { s.computeBatch(i, done) },
		func() { finished = true },
	)
	s.k.Run()
	if s.failErr != nil {
		return nil, s.failErr
	}
	if s.k.Canceled() {
		if s.ctx != nil && s.ctx.Err() != nil {
			return nil, s.ctx.Err()
		}
		return nil, context.Canceled
	}
	if !finished {
		return nil, fmt.Errorf("platform: %v simulation deadlocked (events drained before completion)", s.kind)
	}
	elapsed := s.k.Now()
	s.meter.FinishStatic(elapsed)

	res := &Result{
		Platform:   s.kind.String(),
		Dataset:    s.inst.Desc.Name,
		Elapsed:    elapsed,
		Targets:    s.coll.Targets(),
		Batches:    s.coll.Batches(),
		Throughput: s.coll.Throughput(elapsed),

		FlashReads:   s.backend.Reads(),
		BusBytes:     s.backend.BusBytes(),
		PCIeBytes:    s.pcieBytes,
		MeanDies:     s.backend.DieUtil.Mean(elapsed),
		MeanChannels: s.backend.ChanUtil.Mean(elapsed),
		DieTimeline:  s.backend.DieUtil.Timeline(),
		ChanTimeline: s.backend.ChanUtil.Timeline(),

		Commands:    s.coll.Commands(),
		HopSpans:    s.coll.HopTimeline(),
		HopOverlap:  s.coll.OverlapFraction(),
		EnergyJ:     s.meter.Total(),
		EnergyByCmp: s.meter.Breakdown(),
		EnergyGroup: s.meter.GroupFractions(),
		AvgPowerW:   s.meter.AvgPower(elapsed),
	}
	res.Phases, _ = s.coll.PhaseBreakdown()
	res.PhaseLatency = s.coll.PhaseQuantiles()
	res.CmdBreakdown, res.CmdLifetime = s.coll.CommandBreakdown()
	res.CmdP50 = s.coll.CommandHistogram().Quantile(0.5)
	res.CmdP99 = s.coll.CommandHistogram().Quantile(0.99)
	if res.AvgPowerW > 0 {
		res.Efficiency = res.Throughput / res.AvgPowerW
	}
	if s.inj != nil {
		st := s.inj.Stats()
		res.Faults = &st
	}
	if s.chk != nil {
		if err := s.runChecks(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Simulate is the one-call entry: build a system and run it.
func Simulate(kind Kind, cfg config.Config, inst *dataset.Instance, numBatches, timelinePoints int) (*Result, error) {
	return SimulateCtx(context.Background(), kind, cfg, inst, numBatches, timelinePoints)
}

// SimulateCtx is Simulate bound to ctx: cancellation or deadline expiry
// aborts the event loop mid-run and returns ctx.Err().
func SimulateCtx(ctx context.Context, kind Kind, cfg config.Config, inst *dataset.Instance, numBatches, timelinePoints int) (*Result, error) {
	s, err := NewSystem(kind, cfg, inst, timelinePoints)
	if err != nil {
		return nil, err
	}
	s.BindContext(ctx)
	return s.Run(numBatches)
}
