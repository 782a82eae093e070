// Package ssd composes the substrate models into the regular-I/O face
// of the BeaconGNN device (Section VI-G's "regular-I/O mode"): NVMe
// block reads and writes through the firmware, a log-structured FTL
// with greedy garbage collection, and the same flash backend the GNN
// engine uses. It demonstrates Section VI-E's isolation promise — the
// standard storage functionality remains intact around the pinned
// DirectGraph blocks.
package ssd

import (
	"fmt"

	"beacongnn/internal/config"
	"beacongnn/internal/dram"
	"beacongnn/internal/firmware"
	"beacongnn/internal/flash"
	"beacongnn/internal/ftl"
	"beacongnn/internal/nvme"
	"beacongnn/internal/sim"
)

// Device is a BeaconGNN SSD in regular-I/O mode.
type Device struct {
	k       *sim.Kernel
	cfg     config.Config
	backend *flash.Backend
	fw      *firmware.Processor
	mem     *dram.DRAM
	qp      *nvme.QueuePair
	FTL     *ftl.FTL

	// GCThreshold is the free-block low-water mark that triggers
	// foreground GC before a write (default 2).
	GCThreshold int

	hostWrites uint64
	flashProgs uint64 // programs incl. GC migrations
	reads      uint64
	readMisses uint64
}

// New builds a device on the kernel.
func New(k *sim.Kernel, cfg config.Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	backend, err := flash.New(k, cfg.Flash, 0)
	if err != nil {
		return nil, err
	}
	fw, err := firmware.NewProcessor(k, cfg.Firmware)
	if err != nil {
		return nil, err
	}
	mem, err := dram.New(k, cfg.DRAM)
	if err != nil {
		return nil, err
	}
	qp, err := nvme.New(k, cfg.PCIe, 256)
	if err != nil {
		return nil, err
	}
	qp.Device = func(nvme.Command) {}
	return &Device{
		k: k, cfg: cfg, backend: backend, fw: fw, mem: mem, qp: qp,
		FTL:         ftl.New(cfg.Flash),
		GCThreshold: 2,
	}, nil
}

// Release hands the flash backend's recycled request state back to the
// process for the next device. Call it once the kernel has drained.
func (d *Device) Release() { d.backend.Release() }

// Kernel returns the simulation kernel driving the device.
func (d *Device) Kernel() *sim.Kernel { return d.k }

// Stats reports (hostWrites, flashPrograms, reads, readMisses); flash
// programs exceeding host writes is GC write amplification.
func (d *Device) Stats() (uint64, uint64, uint64, uint64) {
	return d.hostWrites, d.flashProgs, d.reads, d.readMisses
}

// WriteAmplification returns flash programs per host write.
func (d *Device) WriteAmplification() float64 {
	if d.hostWrites == 0 {
		return 0
	}
	return float64(d.flashProgs) / float64(d.hostWrites)
}

// Write stores one logical page: PCIe data-in, firmware processing,
// (foreground GC if space is low), allocation, flash program.
func (d *Device) Write(lpa uint32, done func(err error)) {
	d.hostWrites++
	d.qp.TransferData(d.cfg.Flash.PageSize, func() {
		cost := d.cfg.Firmware.PollCost + d.cfg.Firmware.TranslateCost + d.cfg.Firmware.FlashCmdCost
		d.fw.Do(cost, func() {
			d.maybeGC(func(gcErr error) {
				if gcErr != nil {
					done(gcErr)
					return
				}
				ppa, err := d.FTL.WriteLPA(lpa)
				if err != nil {
					done(err)
					return
				}
				d.mem.Write(d.cfg.Flash.PageSize, func() {
					d.flashProgs++
					d.backend.ProgramPage(ppa, func() { done(nil) })
				})
			})
		})
	})
}

// Read fetches one logical page back to the host; err reports unmapped
// addresses.
func (d *Device) Read(lpa uint32, done func(err error)) {
	d.reads++
	cost := d.cfg.Firmware.PollCost + d.cfg.Firmware.TranslateCost + d.cfg.Firmware.FlashCmdCost
	d.fw.Do(cost, func() {
		ppa, ok := d.FTL.Lookup(lpa)
		if !ok {
			d.readMisses++
			done(fmt.Errorf("ssd: LPA %d not mapped", lpa))
			return
		}
		d.backend.ReadPage(ppa, 0, nil, func() {
			d.backend.Transfer(ppa, d.cfg.Flash.PageSize, func() {
				d.mem.Read(d.cfg.Flash.PageSize, func() {
					d.qp.TransferData(d.cfg.Flash.PageSize, func() { done(nil) })
				})
			})
		})
	})
}

// maybeGC reclaims blocks until the free pool is back above threshold.
func (d *Device) maybeGC(done func(err error)) {
	if !d.FTL.NeedsGC(d.GCThreshold) {
		done(nil)
		return
	}
	v, err := d.FTL.CollectVictim()
	if err != nil {
		done(err)
		return
	}
	if len(v.Valid) >= d.cfg.Flash.PagesPerBlock {
		// Even the best victim is fully valid: reclaiming it frees no
		// space (migration consumes as much as the erase returns). The
		// device is genuinely full of live data.
		done(fmt.Errorf("ssd: device full of valid data (best victim has %d live pages)", len(v.Valid)))
		return
	}
	d.migrate(v, 0, func(err error) {
		if err != nil {
			done(err)
			return
		}
		d.backend.EraseBlock(v.FirstPage, func() {
			d.FTL.CommitVictim(v)
			d.maybeGC(done) // keep going until above threshold
		})
	})
}

// migrate moves the victim's live pages one by one: read old, remap,
// program new.
func (d *Device) migrate(v *ftl.Victim, i int, done func(err error)) {
	if i >= len(v.Valid) {
		done(nil)
		return
	}
	pair := v.Valid[i]
	d.backend.ReadPage(pair.PPA, 0, nil, func() {
		newPPA, err := d.FTL.WriteLPA(pair.LPA)
		if err != nil {
			done(err)
			return
		}
		d.flashProgs++
		d.backend.ProgramPage(newPPA, func() {
			d.migrate(v, i+1, done)
		})
	})
}
