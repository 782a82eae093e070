package platform

import (
	"context"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/invariant"
)

// Invariant-checker integration. EnableChecks attaches a checker to the
// same zero-overhead hooks the tracer and energy meter use; with no
// checker attached every hook is a nil pointer check and the event
// sequence is bit-for-bit identical to an unchecked run. Checks cover
// Run (the GNN workload); the side microbenchmarks (Fig. 7, regular-IO
// mode) have their own kernels and are not checked.

// EnableChecks attaches an invariant checker to every observable seam
// of the system: the kernel clock probe, all contended resources (as a
// tracer), the energy meter's deposit stream, the flash sense ledger,
// and completion-time drain probes. Must be called before Run; any
// tracer set via SetTracer afterwards is teed with the checker.
func (s *System) EnableChecks(c *invariant.Checker) {
	s.chk = c
	s.k.SetProbe(c.KernelStep)
	s.meter.OnAdd = c.EnergyEvent

	// Service widths, for the span-nesting and busy ≤ wall × width
	// checks. These mirror the server constructions in NewSystem and
	// flash.New; a width mismatch here would surface as a span.nested
	// violation on a healthy run.
	for i := 0; i < s.cfg.Flash.TotalDies(); i++ {
		c.RegisterResource("flash.die", i, s.cfg.Flash.PlanesPerDie)
		c.RegisterResource("flash.sampler", i, 1)
	}
	for i := 0; i < s.cfg.Flash.Channels; i++ {
		c.RegisterResource("flash.channel", i, 1)
	}
	c.RegisterResource("firmware.cores", 0, s.cfg.Firmware.Cores)
	c.RegisterResource("dram.port", 0, 1)
	c.RegisterResource("nvme.pcie", 0, 1)
	c.RegisterResource("host.cpu", 0, s.host.Width())
	c.RegisterResource("accel.queue", 0, s.accelQ.Width())

	// Queues that must be empty once the run completes.
	c.RegisterDrain("flash", s.backend.Occupancy)
	c.RegisterDrain("firmware.cores", s.fw.Occupancy)
	c.RegisterDrain("dram.port", s.mem.Occupancy)
	c.RegisterDrain("nvme", s.pcie.Occupancy)
	c.RegisterDrain("host.cpu", func() (int, int) { return s.host.Busy(), s.host.QueueLen() })
	c.RegisterDrain("accel.queue", func() (int, int) { return s.accelQ.Busy(), s.accelQ.QueueLen() })

	// Observe every resource's service spans (tees with later tracers).
	s.SetTracer(nil)
}

// runChecks runs the completion-time invariants against a finished
// run's result and returns an error naming each violated invariant.
func (s *System) runChecks(res *Result) error {
	c := s.chk
	c.Assert("queues.drained", s.k.Pending() == 0,
		"kernel has %d events pending after Run", s.k.Pending())
	c.CheckFlashConservation(s.backend.Reads())
	req, _ := c.SenseLedger()
	c.Assert("result.commands", res.Commands == req,
		"%d command lifetimes recorded vs %d sense requests", res.Commands, req)

	c.Finish(res.Elapsed)

	// Result-level sanity: the derived aggregates must agree with the
	// raw counters they were computed from.
	c.Assert("result.batches", res.Targets == res.Batches*s.cfg.GNN.BatchSize,
		"%d targets completed over %d batches × %d", res.Targets, res.Batches, s.cfg.GNN.BatchSize)
	if res.Elapsed > 0 {
		c.AssertNear("result.throughput", res.Throughput,
			float64(res.Targets)/res.Elapsed.Seconds(), 1e-9, "throughput vs targets/elapsed")
	}
	// DieUtil counts busy plane sense units (a two-plane die senses both
	// planes concurrently), so the capacity bound is dies × planes.
	dieSlots := s.cfg.Flash.TotalDies() * s.cfg.Flash.PlanesPerDie
	c.Assert("result.utilization",
		res.MeanDies >= 0 && res.MeanDies <= float64(dieSlots)*(1+1e-9),
		"mean active die planes %.3f outside [0, %d]", res.MeanDies, dieSlots)
	c.Assert("result.utilization",
		res.MeanChannels >= 0 && res.MeanChannels <= float64(s.cfg.Flash.Channels)*(1+1e-9),
		"mean active channels %.3f outside [0, %d]", res.MeanChannels, s.cfg.Flash.Channels)

	// Energy: reported total == shadow ledger of per-event charges,
	// every bucket non-negative, shares and groups sum to one, every
	// component maps to a named Fig. 19 group.
	c.AssertNear("energy.ledger", res.EnergyJ, c.EnergyTotal(), 1e-9,
		"reported energy vs sum of per-event charges")
	var shareSum float64
	for _, sh := range res.EnergyByCmp {
		shareSum += sh.Fraction
		c.Assert("energy.nonnegative", sh.Joules >= 0,
			"component %s has %g J", sh.Component, sh.Joules)
	}
	if res.EnergyJ > 0 {
		c.AssertNear("energy.breakdown", shareSum, 1, 1e-9, "energy share sum")
		var groupSum float64
		for g, f := range res.EnergyGroup {
			groupSum += f
			c.Assert("energy.groups", g != "",
				"a component is missing from the Fig. 19 group map (%.3f of total)", f)
		}
		c.AssertNear("energy.breakdown", groupSum, 1, 1e-9, "energy group sum")
	}

	// Latency distributions must be ordered, and every phase share
	// non-negative.
	for _, q := range res.PhaseLatency {
		c.Assert("result.quantiles", q.P50 <= q.P95 && q.P95 <= q.P99,
			"phase %s: p50 %v, p95 %v, p99 %v out of order", q.Phase, q.P50, q.P95, q.P99)
	}
	for _, ph := range res.Phases {
		c.Assert("result.phases", ph.Time >= 0, "phase %s accumulated %v", ph.Phase, ph.Time)
	}
	for p, t := range res.CmdBreakdown {
		c.Assert("result.phases", t >= 0, "command phase %s mean %v", p, t)
	}
	var sum int64
	for _, t := range res.CmdBreakdown {
		sum += int64(t)
	}
	// Each phase mean truncates independently, so the sum may undershoot
	// the lifetime mean by up to one unit per phase.
	c.Assert("result.lifetime", int64(res.CmdLifetime)-sum >= 0 && int64(res.CmdLifetime)-sum <= int64(len(res.CmdBreakdown)),
		"command lifetime %v vs phase-mean sum %d", res.CmdLifetime, sum)

	// Hop spans: ordered windows within the run.
	for i, h := range res.HopSpans {
		c.Assert("result.hops", h.First >= 0 && h.First <= h.Last && h.Last <= res.Elapsed,
			"hop %d window [%v, %v] outside run [0, %v]", h.Hop, h.First, h.Last, res.Elapsed)
		if i > 0 {
			c.Assert("result.hops", h.First >= res.HopSpans[i-1].First,
				"hop %d started at %v before hop %d at %v", h.Hop, h.First, res.HopSpans[i-1].Hop, res.HopSpans[i-1].First)
		}
	}
	return c.Err()
}

// SimulateCheckedCtx is SimulateCtx with a fresh invariant checker
// attached: the run fails with a named-invariant diagnostic if any
// conservation or sanity law breaks. Results are identical to
// SimulateCtx — checking only observes.
func SimulateCheckedCtx(ctx context.Context, kind Kind, cfg config.Config, inst *dataset.Instance, numBatches, timelinePoints int) (*Result, error) {
	s, err := NewSystem(kind, cfg, inst, timelinePoints)
	if err != nil {
		return nil, err
	}
	s.EnableChecks(invariant.New())
	s.BindContext(ctx)
	return s.Run(numBatches)
}
