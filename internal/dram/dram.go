// Package dram models the SSD-internal DRAM as a shared
// bandwidth-limited port. In BeaconGNN the DRAM buffers data between
// the flash backend and the spatial accelerator; the paper's Section
// VIII notes it becomes the bottleneck once flash throughput is high
// enough (reproduced in the Fig. 18d channel-count sensitivity sweep).
package dram

import (
	"fmt"

	"beacongnn/internal/config"
	"beacongnn/internal/sim"
)

// DRAM is a single shared read/write port.
type DRAM struct {
	pipe *sim.Pipe

	// OnBytes, when set, receives every transfer's size for energy
	// accounting.
	OnBytes func(n int)
}

// New returns a DRAM port with the configured bandwidth and latency.
func New(k *sim.Kernel, link config.Link) (*DRAM, error) {
	if link.Bandwidth <= 0 {
		return nil, fmt.Errorf("dram: bandwidth must be positive")
	}
	return &DRAM{pipe: sim.NewPipe(k, link.Bandwidth, link.Latency)}, nil
}

// Write moves n bytes into DRAM; done fires when the port releases them.
func (d *DRAM) Write(n int, done func()) {
	if d.OnBytes != nil {
		d.OnBytes(n)
	}
	d.pipe.Transfer(n, done)
}

// Read moves n bytes out of DRAM.
func (d *DRAM) Read(n int, done func()) {
	if d.OnBytes != nil {
		d.OnBytes(n)
	}
	d.pipe.Transfer(n, done)
}

// Occupancy reports (in-service, queued) transfers on the port — both
// zero once a run has drained.
func (d *DRAM) Occupancy() (busy, queued int) { return d.pipe.Occupancy() }

// SetUtilization attaches a utilization tracker to the port.
func (d *DRAM) SetUtilization(u *sim.Utilization) { d.pipe.SetUtilization(u) }

// SetTracer attaches a request tracer to the port.
func (d *DRAM) SetTracer(t sim.Tracer) { d.pipe.SetTracer(t, "dram.port", 0) }
