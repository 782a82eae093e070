package platform

import (
	"context"
	"fmt"

	"beacongnn/internal/accel"
	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/energy"
	"beacongnn/internal/fault"
	"beacongnn/internal/firmware"
	"beacongnn/internal/ftl"
	"beacongnn/internal/graph"
	"beacongnn/internal/invariant"
	"beacongnn/internal/metrics"
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

	device
	host   *sim.Server
	rtr    *router.Router
	ssdAcc *accel.Model
	tpu    *accel.Model
	accelQ *sim.Server
	meter  *energy.Meter
	coll   *metrics.Collector

	layout     directgraph.Layout
	trng       *trngSlab // the per-die TRNGs, one slab recycled across runs
	rng        xrand.Source
	samplerCfg sampler.Config
	// batches[id] is the batch in preparation with that id, nil once it
	// has finished.
	batches []*batchState
	lists   lists // free lists of the pooled data-path state (pools.go)

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
	s.mem.SetTracer(t, "dram.port", 0)
	s.pcie.SetTracer(t, "nvme.pcie", 0)
	s.host.SetTracer(t, "host.cpu", 0)
	s.accelQ.SetTracer(t, "accel.queue", 0)
}

// NewSystem wires a platform over a materialized dataset instance.
func NewSystem(kind Kind, cfg config.Config, inst *dataset.Instance, timelinePoints int) (*System, error) {
	if inst == nil || inst.Build == nil || inst.Build.Pages == nil {
		return nil, fmt.Errorf("platform: dataset instance must be materialized")
	}
	d, err := newDevice(cfg, timelinePoints)
	if err != nil {
		return nil, err
	}
	mkSched, err := newScheduler(cfg.Sched)
	if err != nil {
		return nil, err
	}
	if mkSched != nil {
		d.backend.SetSchedulers(mkSched)
	}
	ssdAcc, err := accel.New(cfg.SSDAccel)
	if err != nil {
		return nil, err
	}
	tpu, err := accel.New(cfg.TPU)
	if err != nil {
		return nil, err
	}
	s := &System{
		kind: kind, caps: CapsOf(kind), cfg: cfg, inst: inst,
		device: d,
		host:   sim.NewServer(d.k, cfg.Host.Cores),
		ssdAcc: ssdAcc, tpu: tpu,
		accelQ: sim.NewServer(d.k, 1),
		meter:  energy.NewMeter(cfg.Energy),
		coll:   metrics.NewCollector(),
		lists:  newLists(),
		layout: inst.Build.Layout,
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
		s.backend.FaultInjector = s.inj
		s.backend.OnRetrySense = s.meter.FlashRetrySenses
	}
	s.rng.Seed(cfg.Seed ^ uint64(kind)<<32)
	// Per-die TRNGs, forked deterministically from the experiment seed:
	// seeding die i from the master's next draw is what Fork does.
	var master xrand.Source
	master.Seed(cfg.Seed)
	s.trng = s.lists.trng.Get()
	s.trng.die = resizeZero(s.trng.die, cfg.Flash.TotalDies())
	for i := range s.trng.die {
		s.trng.die[i].Seed(master.Uint64())
	}
	// Energy hooks.
	s.backend.OnRead = s.meter.FlashReadPage
	s.backend.OnTransfer = s.meter.ChannelBytes
	s.fw.OnBusy = s.meter.CoreBusy
	s.mem.OnBytes = s.meter.DRAMBytes
	s.pcie.OnBytes = s.meter.PCIeBytes
	if s.caps.HWRouting {
		s.rtr = router.New(s.k, s.backend, cfg.DieSampler.CrossbarLat, cfg.DieSampler.ParseLat)
		s.rtr.OnRouted = s.meter.RouterCmd
		// The hardware data path of BG-2: the die executes and execDie
		// finishes the command without firmware (see execOp.onXferDone).
		s.rtr.Exec = func(cmd sampler.Command, release func(), done func([]sampler.Command)) {
			if uint32(cmd.Batch) >= uint32(len(s.batches)) || s.batches[cmd.Batch] == nil {
				panic(fmt.Sprintf("platform: routed command for unknown batch %d", cmd.Batch))
			}
			s.batches[cmd.Batch].execDie(cmd, nil, release, done)
		}
	}
	return s, nil
}

// releaseLists hands the system's storage back for the next run once
// the run's result is built: the free lists of the system, its flash
// backend and its router, the TRNG slab, the router's queues and the
// kernel's servers. A run stopped with events pending keeps the slab,
// the queues and the servers, because those events still name them.
func (s *System) releaseLists() {
	if s.k.Pending() == 0 {
		s.lists.trng.Put(s.trng)
		s.trng = nil
	}
	s.lists.release()
	s.backend.Release()
	if s.rtr != nil {
		s.rtr.Release()
	}
	s.k.ReleaseServers()
}

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
	s.pcie.Transfer(n, done)
}

// dramData moves n bytes through the SSD DRAM port, into or out of it,
// with phase accounting.
func (s *System) dramData(n int, done func()) {
	s.coll.AddPhase(metrics.PhaseDRAM, sim.Time(float64(n)/s.cfg.DRAM.Bandwidth*float64(sim.Second)))
	s.mem.Transfer(n, done)
}

// fwDo occupies a firmware core for cost and accounts it as the
// firmware phase.
func (s *System) fwDo(cost sim.Time, done func()) {
	s.coll.AddPhase(metrics.PhaseFirmware, cost)
	s.fw.Do(cost, done)
}

// commandDone books the lifetime of a flash command created at created
// whose sense ran from senseStart to senseEnd and whose n-byte channel
// transfer, submitted at senseEnd, ends now.
func (s *System) commandDone(created, senseStart, senseEnd sim.Time, n int) {
	xfer := s.cfg.Flash.TransferTime(n)
	fl := senseEnd - senseStart
	s.coll.CommandLifetime(senseStart-created, fl, s.k.Now()-senseEnd-xfer, xfer)
	s.coll.AddPhase(metrics.PhaseFlash, fl)
	s.coll.AddPhase(metrics.PhaseChannel, xfer)
}

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
func (s *System) Run(numBatches int) (*Result, error) { return s.run(numBatches, s.prepBatch) }

// run drives numBatches mini-batches through the prep/compute engine,
// preparing batch i with prep(i, done), then builds the Result. An
// unrecoverable device error, a cancelled context and a run that drains
// before its last batch each end the run with their own error.
func (s *System) run(numBatches int, prep func(i int, done func())) (*Result, error) {
	if numBatches <= 0 {
		return nil, fmt.Errorf("platform: numBatches must be positive")
	}
	engine := firmware.NewEngine(s.k, !s.cfg.Ablation.NoPipeline)
	finished := false
	engine.Run(numBatches, prep, s.computeBatch, func() { finished = true })
	s.k.Run()
	defer s.releaseLists()
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
