package platform

import (
	"fmt"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/firmware"
	"beacongnn/internal/flash"
	"beacongnn/internal/sim"
)

// device is an SSD on a fresh kernel: flash backend, firmware cores,
// the DRAM port and the PCIe link to the host. A System is built on
// one; the DirectGraph flush and the idle regular-I/O baseline run on a
// bare one.
type device struct {
	k       *sim.Kernel
	backend *flash.Backend
	fw      *firmware.Processor
	mem     *sim.Pipe // the SSD DRAM port, traced as dram.port
	pcie    *sim.Pipe // the host link, traced as nvme.pcie
}

// newDevice validates cfg and assembles a device; timelinePoints sizes
// the flash utilization timelines.
func newDevice(cfg config.Config, timelinePoints int) (device, error) {
	if err := cfg.Validate(); err != nil {
		return device{}, err
	}
	d := device{k: sim.New()}
	var err error
	if d.backend, err = flash.New(d.k, cfg.Flash, timelinePoints); err != nil {
		return device{}, err
	}
	if d.fw, err = firmware.NewProcessor(d.k, cfg.Firmware.Cores); err != nil {
		return device{}, err
	}
	d.mem = sim.NewPipe(d.k, cfg.DRAM.Bandwidth, cfg.DRAM.Latency)
	d.pcie = sim.NewPipe(d.k, cfg.PCIe.Bandwidth, cfg.PCIe.Latency)
	return d, nil
}

// drain drives the kernel until no event is left and then hands the
// device's recycled state back for the next run.
func (d *device) drain() {
	d.k.Run()
	d.backend.Release()
	d.k.ReleaseServers()
}

// regularRead serves one regular 4 KB host read of page on the normal
// path: firmware poll, translate and flash command, sense, page
// transfer, DRAM, and PCIe to the host, where done fires.
func (d *device) regularRead(cfg config.Config, page uint32, done func()) {
	cost := cfg.Firmware.PollCost + cfg.Firmware.TranslateCost + cfg.Firmware.FlashCmdCost
	size := cfg.Flash.PageSize
	d.fw.Do(cost, func() {
		d.backend.ReadPage(page, 0, nil, func() {
			d.backend.Transfer(page, size, 0, func() {
				d.mem.Transfer(size, func() {
					d.pcie.Transfer(size, done)
				})
			})
		})
	})
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
	d, err := newDevice(cfg, 0)
	if err != nil {
		return nil, err
	}
	// Per-page firmware verification: destination must lie in reserved
	// blocks and embedded section addresses must stay inside them; we
	// charge a fixed check cost per page (the checks themselves are
	// exercised functionally by directgraph.Validate in tests).
	const verifyCost = 1 * sim.Microsecond
	b := inst.Build
	res := &ConstructionResult{Pages: len(b.Pages), Bytes: int64(len(b.Pages)) * int64(cfg.Flash.PageSize)}

	remaining := len(b.Pages)
	for i := range b.Pages {
		pn := b.First + uint32(i)
		d.pcie.Transfer(cfg.Flash.PageSize, func() {
			d.mem.Transfer(cfg.Flash.PageSize, func() {
				res.VerifyTime += verifyCost
				d.fw.Do(verifyCost, func() {
					d.backend.ProgramPage(pn, func() {
						remaining--
					})
				})
			})
		})
	}
	d.drain()
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
// the regular-I/O statistics. The run is Run's, with only the batch
// preparation extended; it stays unchecked, because the regular reads
// sit outside the checker's sense ledger.
func (s *System) RunWithRegularIO(numBatches int) (*Result, *RegularIOStats, error) {
	stats := &RegularIOStats{}
	// Use a page outside the DirectGraph region.
	page := uint32(s.cfg.Flash.TotalDies() * s.cfg.Flash.PagesPerBlock * 2)
	s.chk = nil
	res, err := s.run(numBatches, func(i int, done func()) {
		arrived := s.k.Now()
		s.prepBatch(i, func() {
			// Acceleration mode: the request that arrived when this
			// batch began is served only now, at the batch boundary.
			deferral := s.k.Now() - arrived
			s.regularRead(s.cfg, page, func() {
				lat := s.k.Now() - arrived
				stats.Count++
				stats.MeanLatency += lat // summed; divided below
				stats.MaxLatency = max(stats.MaxLatency, lat)
				stats.MeanDeferral += deferral
				if deferral > 0 {
					stats.Deferred++
				}
			})
			done()
		})
	})
	if err != nil {
		return nil, nil, err
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
	d, err := newDevice(cfg, 0)
	if err != nil {
		return 0, err
	}
	var latency sim.Time
	d.regularRead(cfg, 0, func() { latency = d.k.Now() })
	d.drain()
	return latency, nil
}
