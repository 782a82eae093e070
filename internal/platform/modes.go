package platform

import (
	"fmt"
	"sort"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/dram"
	"beacongnn/internal/firmware"
	"beacongnn/internal/flash"
	"beacongnn/internal/nvme"
	"beacongnn/internal/sim"
)

// device is a bare SSD on a fresh kernel: flash backend, firmware
// cores, DRAM and an NVMe queue pair whose device side ignores
// commands. The DirectGraph flush and the regular-I/O baseline run on
// it.
type device struct {
	k       *sim.Kernel
	backend *flash.Backend
	fw      *firmware.Processor
	mem     *dram.DRAM
	qp      *nvme.QueuePair
}

// newDevice validates cfg and assembles a device with an NVMe queue of
// the given depth.
func newDevice(cfg config.Config, queueDepth int) (*device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &device{k: sim.New()}
	var err error
	if d.backend, err = flash.New(d.k, cfg.Flash, 0); err != nil {
		return nil, err
	}
	if d.fw, err = firmware.NewProcessor(d.k, cfg.Firmware); err != nil {
		return nil, err
	}
	if d.mem, err = dram.New(d.k, cfg.DRAM); err != nil {
		return nil, err
	}
	if d.qp, err = nvme.New(d.k, cfg.PCIe, queueDepth); err != nil {
		return nil, err
	}
	d.qp.Device = func(nvme.Command) {}
	return d, nil
}

// run drives the kernel until no event is left and then hands the
// device's recycled state back for the next run.
func (d *device) run() {
	d.k.Run()
	d.backend.Release()
	d.k.ReleaseServers()
}

// ConstructionResult measures Section VI-B's second step: flushing the
// host-built DirectGraph pages into the reserved flash blocks through
// the customized NVMe interface, with the firmware's per-page write-
// destination verification (Section VI-E) on the path.
type ConstructionResult struct {
	Pages      int
	Bytes      int64
	Elapsed    sim.Time
	Bandwidth  float64 // bytes/s achieved
	VerifyTime sim.Time
}

// SimulateConstruction replays the DirectGraph flush for a materialized
// instance: each page crosses PCIe, is verified by firmware, and is
// programmed to its physical location. Pages flow in physical-page
// order, so programs stripe across all dies.
func SimulateConstruction(cfg config.Config, inst *dataset.Instance) (*ConstructionResult, error) {
	if inst == nil || inst.Build == nil || inst.Build.Pages == nil {
		return nil, fmt.Errorf("platform: construction needs a materialized build")
	}
	d, err := newDevice(cfg, 1024)
	if err != nil {
		return nil, err
	}
	pages := make([]uint32, 0, len(inst.Build.Pages))
	for pn := range inst.Build.Pages {
		pages = append(pages, pn)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })

	// Per-page firmware verification: destination must lie in reserved
	// blocks and embedded section addresses must stay inside them; we
	// charge a fixed check cost per page (the checks themselves are
	// exercised functionally by directgraph.Validate in tests).
	const verifyCost = 1 * sim.Microsecond
	res := &ConstructionResult{Pages: len(pages), Bytes: int64(len(pages)) * int64(cfg.Flash.PageSize)}

	remaining := len(pages)
	for _, pn := range pages {
		pn := pn
		d.qp.TransferData(cfg.Flash.PageSize, func() {
			d.mem.Write(cfg.Flash.PageSize, func() {
				res.VerifyTime += verifyCost
				d.fw.Do(verifyCost, func() {
					d.backend.ProgramPage(pn, func() {
						remaining--
					})
				})
			})
		})
	}
	d.run()
	if remaining != 0 {
		return nil, fmt.Errorf("platform: construction stalled with %d pages pending", remaining)
	}
	res.Elapsed = d.k.Now()
	if res.Elapsed > 0 {
		res.Bandwidth = float64(res.Bytes) / res.Elapsed.Seconds()
	}
	return res, nil
}

// RegularIOStats measures regular storage requests issued while the
// device serves GNN mini-batches (acceleration mode, Section VI-G):
// arrivals during a mini-batch defer to its end before taking the
// normal firmware + flash + PCIe read path.
type RegularIOStats struct {
	Count        int
	MeanLatency  sim.Time
	MaxLatency   sim.Time
	MeanDeferral sim.Time // time spent waiting for the batch boundary
	Deferred     int      // how many arrivals had to wait
}

// RunWithRegularIO simulates the GNN workload with one regular 4 KB
// read injected at the start of every mini-batch's preparation (worst
// case: it waits out the entire batch). It returns the GNN result plus
// the regular-I/O statistics.
func (s *System) RunWithRegularIO(numBatches int) (*Result, *RegularIOStats, error) {
	stats := &RegularIOStats{}
	var completeIO func(arrived sim.Time, deferred sim.Time)
	completeIO = func(arrived, deferral sim.Time) {
		// Normal read path: poll, translate, schedule, sense, page
		// transfer, DRAM, PCIe to host.
		cost := s.cfg.Firmware.PollCost + s.cfg.Firmware.TranslateCost + s.cfg.Firmware.FlashCmdCost
		s.fw.Do(cost, func() {
			// Use a page outside the DirectGraph region.
			page := uint32(s.cfg.Flash.TotalDies() * s.cfg.Flash.PagesPerBlock * 2)
			s.backend.ReadPage(page, 0, nil, func() {
				s.backend.Transfer(page, s.cfg.Flash.PageSize, func() {
					s.mem.Read(s.cfg.Flash.PageSize, func() {
						s.qp.TransferData(s.cfg.Flash.PageSize, func() {
							lat := s.k.Now() - arrived
							stats.Count++
							stats.MeanLatency += lat // summed; divided below
							if lat > stats.MaxLatency {
								stats.MaxLatency = lat
							}
							stats.MeanDeferral += deferral
							if deferral > 0 {
								stats.Deferred++
							}
						})
					})
				})
			})
		})
	}

	engine := firmware.NewEngine(s.k, !s.cfg.Ablation.NoPipeline)
	finished := false
	engine.Run(numBatches,
		func(i int, done func()) {
			arrived := s.k.Now()
			s.prepBatch(i, func() {
				// Acceleration mode: the request that arrived when this
				// batch began is served only now, at the batch boundary.
				completeIO(arrived, s.k.Now()-arrived)
				done()
			})
		},
		func(i int, done func()) { s.computeBatch(i, done) },
		func() { finished = true },
	)
	s.k.Run()
	defer s.releaseLists()
	if !finished {
		return nil, nil, fmt.Errorf("platform: simulation deadlocked")
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
		FlashReads: s.backend.Reads(),
	}
	if stats.Count > 0 {
		stats.MeanLatency /= sim.Time(stats.Count)
		stats.MeanDeferral /= sim.Time(stats.Count)
	}
	return res, stats, nil
}

// RegularIOBaseline measures the same 4 KB read path on an idle device
// (regular-I/O mode): no GNN work, no deferral.
func RegularIOBaseline(cfg config.Config) (sim.Time, error) {
	d, err := newDevice(cfg, 16)
	if err != nil {
		return 0, err
	}
	var latency sim.Time
	cost := cfg.Firmware.PollCost + cfg.Firmware.TranslateCost + cfg.Firmware.FlashCmdCost
	d.fw.Do(cost, func() {
		d.backend.ReadPage(0, 0, nil, func() {
			d.backend.Transfer(0, cfg.Flash.PageSize, func() {
				d.mem.Read(cfg.Flash.PageSize, func() {
					d.qp.TransferData(cfg.Flash.PageSize, func() {
						latency = d.k.Now()
					})
				})
			})
		})
	})
	d.run()
	return latency, nil
}
