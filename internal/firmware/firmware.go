// Package firmware models the SSD embedded processor: a pool of cores
// executing the flash firmware's control-plane functions (Section
// II-B2) — host I/O polling, FTL translation, flash-I/O scheduling,
// result parsing, and (in BG-1/BG-DG) software neighbor sampling — plus
// the firmware GNN engine of Section VI-D that pipelines data
// preparation with GNN computation across mini-batches.
//
// Every operation occupies a core for a configured cost; core
// contention is exactly what caps BG-SP/BG-DGSP throughput in the
// paper, and what the BG-2 hardware router removes from the path.
package firmware

import (
	"fmt"

	"beacongnn/internal/sim"
)

// Processor is the embedded-core pool. Callers state each operation's
// cost (config.Firmware holds them) and occupy a core with Do.
type Processor struct {
	cores *sim.Server

	// OnBusy, when set, receives per-op core time for energy accounting.
	OnBusy func(t sim.Time)
}

// NewProcessor returns a pool of the given number of parallel cores.
func NewProcessor(k *sim.Kernel, cores int) (*Processor, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("firmware: cores must be positive, got %d", cores)
	}
	return &Processor{cores: sim.NewServer(k, cores)}, nil
}

// SetTracer attaches a request tracer to the core pool.
func (p *Processor) SetTracer(t sim.Tracer) { p.cores.SetTracer(t, "firmware.cores", 0) }

// Occupancy reports (ops in service, ops queued) on the core pool —
// both zero once a run has drained.
func (p *Processor) Occupancy() (busy, queued int) { return p.cores.Busy(), p.cores.QueueLen() }

// Do occupies one core for cost, then runs done.
func (p *Processor) Do(cost sim.Time, done func()) {
	if p.OnBusy != nil {
		p.OnBusy(cost)
	}
	p.cores.Submit(cost, done)
}

// Engine is the firmware GNN engine (Section VI-D): it schedules
// mini-batches so that data preparation of batch i+1 overlaps GNN
// computation of batch i, keeping the flash backend and the spatial
// accelerator busy simultaneously.
type Engine struct {
	k         *sim.Kernel
	Pipelined bool
}

// NewEngine returns a batch scheduler. Pipelined=false degenerates to
// strict prep→compute→prep ordering (the ablation in bench tests).
func NewEngine(k *sim.Kernel, pipelined bool) *Engine {
	return &Engine{k: k, Pipelined: pipelined}
}

// Run schedules numBatches batches. prep(i, done) must start batch i's
// data preparation and call done on completion; compute likewise. When
// pipelined, prep(i+1) starts as soon as prep(i) finishes (the backend
// is free), while compute(i) additionally waits for compute(i−1)'s
// completion (one accelerator). allDone fires after the last compute.
func (e *Engine) Run(numBatches int, prep, compute func(i int, done func()), allDone func()) {
	if numBatches <= 0 {
		if allDone != nil {
			allDone()
		}
		return
	}
	prepDone := make([]bool, numBatches)
	compDone := make([]bool, numBatches)
	compStarted := make([]bool, numBatches)

	var tryCompute func(i int)

	tryCompute = func(i int) {
		if i >= numBatches || compStarted[i] || !prepDone[i] {
			return
		}
		if i > 0 && !compDone[i-1] {
			return
		}
		compStarted[i] = true
		compute(i, func() {
			compDone[i] = true
			if i == numBatches-1 {
				if allDone != nil {
					allDone()
				}
				return
			}
			tryCompute(i + 1)
		})
	}
	if e.Pipelined {
		var startPrep func(i int)
		startPrep = func(i int) {
			prep(i, func() {
				prepDone[i] = true
				tryCompute(i)
				if i+1 < numBatches {
					startPrep(i + 1)
				}
			})
		}
		startPrep(0)
		return
	}
	// Serial mode: chain prep(i) → compute(i) → prep(i+1).
	var serial func(i int)
	serial = func(i int) {
		prep(i, func() {
			prepDone[i] = true
			compStarted[i] = true
			compute(i, func() {
				compDone[i] = true
				if i+1 < numBatches {
					serial(i + 1)
				} else if allDone != nil {
					allDone()
				}
			})
		})
	}
	serial(0)
}
