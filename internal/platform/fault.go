package platform

import (
	"fmt"

	"beacongnn/internal/directgraph"
	"beacongnn/internal/fault"
	"beacongnn/internal/ftl"
	"beacongnn/internal/metrics"
	"beacongnn/internal/sim"
)

// Reliability plumbing: every DirectGraph page sense goes through
// senseManaged, which resolves possibly-stale page numbers through the
// FTL (relocation, spare remaps), classifies the sense through the
// fault injector, and on an uncorrectable page runs the firmware
// recovery ladder — bounded re-sense attempts with exponential backoff
// under a per-command deadline, then block retirement, spare remapping,
// optionally a full DirectGraph relocation, and finally a degraded
// read. With the fault
// model disabled all of this collapses to a plain ReadPage.

// fail aborts the simulation with the first unrecoverable error instead
// of panicking out of the event loop; Run surfaces it to the caller.
func (s *System) fail(err error) {
	if s.failErr == nil {
		s.failErr = err
	}
	s.k.Stop()
}

// imagePage maps a possibly-stale page number to its page in the
// current image, whose bytes the die reads (identity when the fault
// model is off).
func (s *System) imagePage(p uint32) uint32 {
	if s.ftl == nil {
		return p
	}
	return s.ftl.ImagePage(p)
}

// resolvePage maps a possibly-stale page number to the physical page
// that holds its data now: its image page, spare-remapped.
func (s *System) resolvePage(p uint32) uint32 {
	if s.ftl == nil {
		return p
	}
	return s.ftl.PhysicalPage(s.ftl.ImagePage(p))
}

// senseManaged senses a DirectGraph page with fault handling. done
// receives the final physical page the data was read from, for the die
// and the channel transfer. ioDL is the EDF scheduling deadline threaded
// to the die (0 = none; see sched.go — distinct from the recovery
// deadline below). With no injector the event sequence is
// identical to backend.ReadPage. The per-sense state lives in a pooled
// senseCtx whose continuations are bound once (pools.go).
func (s *System) senseManaged(page uint32, dieExtra, ioDL sim.Time, senseStart func(sim.Time), done func(final uint32)) {
	if s.chk != nil {
		s.chk.CountSenseRequest()
	}
	c := s.lists.senseCtx.Get()
	c.s, c.page, c.dieExtra, c.ioDL = s, page, dieExtra, ioDL
	c.senseStart, c.done = senseStart, done
	c.attempt, c.deadline = 0, 0
	s.senseAttempt(c)
}

func (s *System) senseAttempt(c *senseCtx) {
	if s.chk != nil && c.attempt > 0 {
		// A retry re-sense: accounted on the recovery side of the
		// flash.conservation ledger.
		s.chk.CountRecoverySense()
	}
	c.rp = s.resolvePage(c.page)
	s.backend.SensePage(c.rp, c.dieExtra, c.ioDL, c.senseStart, c.fnOutcome)
}

// onOutcome is senseCtx's bound SensePage continuation: the firmware
// recovery ladder of Section VI-E. The clean path releases the context
// immediately; the cold fault paths may keep it alive across retries.
func (c *senseCtx) onOutcome(out fault.Outcome) {
	s := c.s
	switch out.Class {
	case fault.Clean, fault.Retry:
		// Re-resolve: a concurrent recovery may have moved the data
		// between classification and completion.
		done, page := c.done, c.page
		c.release()
		done(s.resolvePage(page))
	case fault.SoftDecode:
		s.coll.AddPhase(metrics.PhaseECC, out.FirmwareTime)
		done, page := c.done, c.page
		c.release()
		s.fw.Do(out.FirmwareTime, func() { done(s.resolvePage(page)) })
	default: // fault.Uncorrectable
		fc := s.cfg.Fault
		if c.attempt == 0 && fc.CmdDeadline > 0 {
			c.deadline = s.k.Now() + fc.CmdDeadline
		}
		// Re-sensing a dead die cannot succeed; go straight to
		// recovery. Otherwise retry with exponential backoff while
		// attempts and the command deadline allow.
		if !out.DieDead && c.attempt < fc.MaxRecoveryAttempts {
			backoff := recoveryBackoff(fc.RetryBackoff, c.attempt)
			if c.deadline == 0 || s.k.Now()+backoff <= c.deadline {
				c.attempt++
				s.k.After(backoff, c.fnRetry)
				return
			}
		}
		if err := s.recoverPage(c.rp, out.DieDead); err != nil {
			c.release()
			s.fail(err)
			return
		}
		// The data now lives on a healthy spare (or relocated) page;
		// one final sense completes the command as a degraded read.
		s.inj.NoteDegraded()
		s.coll.AddPhase(metrics.PhaseECC, out.ExtraDieTime)
		if s.chk != nil {
			s.chk.CountRecoverySense()
		}
		done, page, dieExtra, ioDL, senseStart := c.done, c.page, c.dieExtra, c.ioDL, c.senseStart
		c.release()
		final := s.resolvePage(page)
		s.backend.SensePage(final, dieExtra, ioDL, senseStart, func(fault.Outcome) {
			done(s.resolvePage(page))
		})
	}
}

// maxRecoveryBackoff caps the recovery ladder's doubled delay. 2^40
// simulated nanoseconds (~18 minutes) dwarfs any CmdDeadline horizon,
// so the cap never admits a retry the deadline check would have
// rejected — it only stops base<<attempt from wrapping negative at
// large attempt counts (a negative delay panics the kernel).
const maxRecoveryBackoff = sim.Time(1) << 40

// recoveryBackoff returns the re-sense delay before recovery attempt
// number attempt (0-based), saturating at maxRecoveryBackoff instead
// of overflowing.
func recoveryBackoff(base sim.Time, attempt int) sim.Time {
	if base <= 0 {
		return 0
	}
	b := base
	for i := 0; i < attempt && b < maxRecoveryBackoff; i++ {
		b <<= 1
	}
	if b > maxRecoveryBackoff {
		b = maxRecoveryBackoff
	}
	return b
}

// recoverPage retires the failed page's block, remaps the page into the
// spare region (onto a healthy die), and — once enough wear-caused
// retirements accumulate — relocates the whole DirectGraph onto fresh
// rows. A remap changes only the FTL's map; the image keeps the bytes.
// Dead-die retirements never trigger relocation: the fresh rows
// would stripe across the same dead die and churn forever; remap-only is
// the stable response to a die outage.
func (s *System) recoverPage(rp uint32, dieDead bool) error {
	if s.resolvePage(rp) != rp {
		return nil // a concurrent recovery of this page already ran
	}
	geom := s.backend.Geometry()
	id := ftl.BlockID{Die: geom.GlobalDie(rp), Block: geom.BlockOf(rp)}
	if !s.ftl.IsRetiredBlock(id) {
		s.ftl.RetireBlock(id)
		s.inj.NoteRetiredBlock()
		if !dieDead {
			s.retireWear++
		}
	}
	if _, err := s.ftl.RemapPage(rp, func(die int) bool { return !s.inj.DieDead(die) }); err != nil {
		return fmt.Errorf("platform: recovering page %d: %w", rp, err)
	}
	s.inj.NoteRemappedPage()
	fc := s.cfg.Fault
	if !dieDead && fc.RelocateAfterRetire > 0 && s.retireWear >= fc.RelocateAfterRetire {
		s.retireWear = 0
		return s.relocateDirectGraph()
	}
	return nil
}

// relocateDirectGraph migrates the DirectGraph to fresh block rows: the
// FTL plans the move (skipping retired rows and spares) and drops the
// spare remaps it supersedes, every embedded address shifts by the
// plan's delta, and the move is recorded so stale in-flight page numbers
// keep resolving. Running out of rows is not an error — the device
// degrades to remap-only service.
func (s *System) relocateDirectGraph() error {
	plan, err := s.ftl.PlanReclamation()
	if err != nil {
		return nil // no clean rows left: keep serving from spares
	}
	count := uint32(plan.Rows) * uint32(s.cfg.Flash.TotalDies()) * uint32(s.cfg.Flash.PagesPerBlock)
	// The relocated copy is whole: the old region's spare remaps go.
	s.ftl.ClearRemapsIn(plan.OldFirstPage, count)
	if err := directgraph.Relocate(s.build, plan.PageDelta); err != nil {
		return fmt.Errorf("platform: relocating DirectGraph: %w", err)
	}
	s.ftl.RecordRelocation(plan.OldFirstPage, count, plan.PageDelta)
	s.inj.NoteRelocation()
	return nil
}
