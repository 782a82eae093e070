package platform

import (
	"fmt"

	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
	"beacongnn/internal/metrics"
	"beacongnn/internal/sampler"
	"beacongnn/internal/sim"
)

// batchState tracks one mini-batch's data preparation: outstanding work,
// per-step counters for hop barriers, and buffered next-hop commands.
// Steps are indexed by the depth of the node being read (0..Hops).
type batchState struct {
	sys *System
	id  int32

	outstanding int
	hopOut      []int
	pendDie     [][]sampler.Command // die platforms: children awaiting a barrier
	pendPage    [][]nodeRead        // page platforms
	fired       []bool
	featBytes   int64
	done        func()
	finished    bool

	// Scratch buffers reused across the batch's reads. They are only
	// ever consumed synchronously by their producer's caller, so one of
	// each per batch suffices (the kernel is single-threaded).
	pageScratch  []uint32          // page fan-out lists (appendPages)
	childScratch []nodeRead        // drawChildren output
	coalesce     [][]graph.NodeID  // BG-DG secondary coalescing, by index
	dieScratch   []sampler.Command // accountDie output
}

func (s *System) newBatch(id int, done func()) *batchState {
	hops := s.cfg.GNN.Hops
	b := batchPool.Get()
	b.sys, b.id, b.done = s, int32(id), done
	b.outstanding, b.featBytes, b.finished = 0, 0, false
	b.hopOut = resizeZero(b.hopOut, hops+1)
	b.pendDie = resizeZero(b.pendDie, hops+2)
	b.pendPage = resizeZero(b.pendPage, hops+2)
	b.fired = resizeZero(b.fired, hops+2)
	return b
}

// release returns the batch to the pool once finish has run its
// completion callback; nothing references the batch past that point
// (outstanding hit zero, so no command in flight can name it).
func (b *batchState) release() {
	b.sys, b.done = nil, nil
	for i := range b.pendDie {
		b.pendDie[i] = nil
	}
	for i := range b.pendPage {
		b.pendPage[i] = nil
	}
	b.pageScratch = b.pageScratch[:0]
	b.dieScratch = b.dieScratch[:0]
	cs := b.childScratch[:cap(b.childScratch)]
	for i := range cs {
		cs[i] = nodeRead{} // drop secChildren references
	}
	b.childScratch = cs[:0]
	for i := range b.coalesce {
		b.coalesce[i] = nil
	}
	batchPool.Put(b)
}

// prepBatch starts batch i's data preparation and calls done when every
// feature vector and subgraph edge for the batch is in place.
func (s *System) prepBatch(i int, done func()) {
	b := s.newBatch(i, done)
	s.batches[int32(i)] = b
	var targets []graph.NodeID
	if s.targetSource != nil {
		targets = s.targetSource(i)
		if len(targets) != s.cfg.GNN.BatchSize {
			panic(fmt.Sprintf("platform: target source returned %d targets, want %d", len(targets), s.cfg.GNN.BatchSize))
		}
	} else {
		targets = drawTargets(s.rng, s.inst.Graph.NumNodes(), s.cfg.GNN)
	}
	// Mini-batch start (Section VI-D): the host looks up each target's
	// primary-section address (or LPA), sends one customized NVMe
	// command, and the firmware polls it.
	remaining := len(targets)
	translated := func() {
		remaining--
		if remaining == 0 {
			s.pcieData(8*len(targets), func() {
				s.fwPhase(s.cfg.Firmware.PollCost)
				s.fw.Poll(func() { s.launchTargets(b, targets) })
			})
		}
	}
	for range targets {
		s.hostDo(s.cfg.Host.TranslateCost, translated)
	}
}

// launchTargets injects the per-target root work.
func (s *System) launchTargets(b *batchState, targets []graph.NodeID) {
	if s.caps.Sampler == SampleOnDie {
		for _, tgt := range targets {
			cmd := sampler.Command{
				Addr:    s.build.NodeAddr(tgt),
				Hop:     0,
				Target:  int32(tgt),
				Batch:   b.id,
				Created: s.k.Now(),
			}
			b.addWork(0)
			b.dispatchDie(cmd)
		}
		return
	}
	for _, tgt := range targets {
		// Page platforms: one combined sampling + feature read at depth 0.
		b.addWork(0)
		b.dispatchPage(nodeRead{node: tgt, hop: 0, sample: true, feature: true, created: s.k.Now()})
	}
}

// addWork registers one unit of outstanding work at the given step.
func (b *batchState) addWork(step int) {
	b.outstanding++
	b.hopOut[step]++
}

// stepDone finishes one unit at the step and drives barrier/completion.
func (b *batchState) stepDone(step int) {
	b.hopOut[step]--
	b.outstanding--
	if b.outstanding == 0 {
		b.finish()
		return
	}
	if b.sys.caps.OutOfOrder {
		return
	}
	if b.hopOut[step] == 0 {
		next := step + 1
		if next < len(b.fired) && !b.fired[next] &&
			(len(b.pendDie[next]) > 0 || len(b.pendPage[next]) > 0) {
			b.fired[next] = true
			b.barrier(next)
		}
	}
}

func (b *batchState) finish() {
	if b.finished {
		panic("platform: batch finished twice")
	}
	b.finished = true
	s := b.sys
	for t := 0; t < s.cfg.GNN.BatchSize; t++ {
		s.coll.TargetDone()
	}
	s.coll.BatchDone()
	delete(s.batches, b.id)
	b.done()
	b.release()
}

// barrier runs the inter-hop host round trip (Challenge 1, Fig. 5):
// sampled results return to the host, which translates every next-hop
// node and commands the SSD to continue.
func (b *batchState) barrier(step int) {
	s := b.sys
	die := b.pendDie[step]
	page := b.pendPage[step]
	b.pendDie[step] = nil
	b.pendPage[step] = nil
	n := len(die) + len(page)
	if n == 0 {
		return
	}
	release := func() {
		s.coll.AddPhase(metrics.PhaseHost, s.cfg.Host.HopRoundTrip)
		s.k.After(s.cfg.Host.HopRoundTrip, func() {
			s.pcieData(8*n, func() {
				s.fwPhase(s.cfg.Firmware.PollCost)
				s.fw.Poll(func() {
					now := s.k.Now()
					for _, c := range die {
						c.Created = now
						b.dispatchDie(c)
					}
					for _, r := range page {
						r.created = now
						b.dispatchPage(r)
					}
				})
			})
		})
	}
	// Host-side per-node translation (node index → LPA / section addr).
	remaining := n
	translated := func() {
		remaining--
		if remaining == 0 {
			release()
		}
	}
	for i := 0; i < n; i++ {
		s.hostDo(s.cfg.Host.TranslateCost, translated)
	}
}

// registerChildDie queues or dispatches a die-sampler child command.
// Counters are bumped immediately so completion detection stays sound.
func (b *batchState) registerChildDie(c sampler.Command) (dispatchNow bool) {
	b.addWork(c.Hop)
	if c.Secondary || b.sys.caps.OutOfOrder {
		return true // same-step secondary reads never wait for a barrier
	}
	b.pendDie[c.Hop] = append(b.pendDie[c.Hop], c)
	return false
}

// ---- Die-sampler data path (BG-SP, BG-DGSP, BG-2) ----

// dispatchDie routes one sampling command toward its die. In BG-2 the
// hardware router carries it; otherwise the firmware scheduler processes
// it first (FlashCmd cost, plus FTL translation without DirectGraph).
// The per-command chain (fw → issue → exec → DMA → parse) lives in a
// pooled dieOp (pools.go).
func (b *batchState) dispatchDie(cmd sampler.Command) {
	s := b.sys
	if cmd.Created == 0 {
		cmd.Created = s.k.Now()
	}
	if s.caps.HWRouting {
		s.rtr.Route(-1, cmd)
		return
	}
	cost := s.cfg.Firmware.FlashCmdCost
	if !s.caps.DirectGraph {
		cost += s.cfg.Firmware.TranslateCost
	}
	op := dieOpPool.Get()
	op.b, op.cmd = b, cmd
	s.fwPhase(cost)
	s.fw.Do(cost, op.fnFwDone)
}

func (op *dieOp) onFwDone() {
	s := op.b.sys
	page := s.resolvePage(s.layout.Page(op.cmd.Addr))
	s.backend.IssueCommand(page, op.fnIssued)
}

func (op *dieOp) onIssued() {
	op.b.execDie(op.cmd, nil, op.fnExecDone)
}

func (op *dieOp) onExecDone(res *sampler.Result) {
	// Results DMA into DRAM and the firmware parses them.
	op.res = res
	op.b.sys.dramWrite(res.BusBytes(), op.fnDramDone)
}

func (op *dieOp) onDramDone() {
	s := op.b.sys
	s.fwPhase(s.cfg.Firmware.ResultParseCost)
	s.fw.ParseResult(op.fnParsed)
}

func (op *dieOp) onParsed() {
	b, cmd, res := op.b, op.cmd, op.res
	op.release()
	children := b.accountDie(cmd, res)
	resultPool.Put(res)
	for _, c := range children {
		b.dispatchDie(c)
	}
	b.stepDone(cmd.Hop)
}

// execDie performs the die-level read + sample + result transfer.
// onSense (optional) fires when the die's array is free again (data in
// the cache register); onDone receives the functional sampler result
// after the channel releases it. Per-command state lives in a pooled
// execOp (pools.go).
func (b *batchState) execDie(cmd sampler.Command, onSense func(), onDone func(*sampler.Result)) {
	s := b.sys
	page := s.layout.Page(cmd.Addr)
	draws := cmd.SampleCount
	if draws <= 0 {
		draws = s.cfg.GNN.Fanout
	}
	extra := s.cfg.DieSampler.Fixed + sim.Time(draws)*s.cfg.DieSampler.PerDraw
	op := execOpPool.Get()
	op.b, op.cmd, op.onSense, op.onDone = b, cmd, onSense, onDone
	s.senseManaged(page, extra, s.ioDeadline(cmd.Created), op.fnSenseStart, op.fnSenseDone)
}

func (op *execOp) onSenseStart(at sim.Time) {
	op.senseStart = at
	if op.cmd.Batch == 0 {
		// Hop timelines (Fig. 16) track a single batch; pipelined
		// batches would blur the spans together.
		op.b.sys.coll.HopStart(op.cmd.Hop, at)
	}
}

func (op *execOp) onSenseDone(final uint32) {
	s := op.b.sys
	op.senseEnd = s.k.Now()
	pageBytes, ok := s.build.Pages[final]
	if !ok {
		// A command addressing a hole in the image is recoverable at
		// the run level (the batch cannot finish, the run fails with
		// context) — not a process-crashing invariant.
		cmd := op.cmd
		op.release()
		s.fail(fmt.Errorf("platform: command addresses unmaterialized page %d (batch %d hop %d)", final, cmd.Batch, cmd.Hop))
		return
	}
	die := s.backend.Geometry().GlobalDie(final)
	// The die's section iterator reads the page bytes in place, so a
	// remapped or relocated page is always seen as it is now.
	res := resultPool.Get()
	if err := sampler.ExecuteInto(res, s.layout, pageBytes, op.cmd, s.samplerCfg, s.dieTRNG[die]); err != nil {
		// Section VI-E: the sampler aborts and control returns to
		// firmware. The run fails with context instead of crashing.
		resultPool.Put(res)
		op.release()
		s.fail(fmt.Errorf("platform: die sampler failed on page %d: %w", final, err))
		return
	}
	op.res = res
	s.meter.FlashSampleOp()
	if op.onSense != nil {
		op.onSense()
	}
	s.backend.TransferDeadline(final, res.BusBytes(), s.ioDeadline(op.cmd.Created), op.fnXferDone)
}

func (op *execOp) onXferDone() {
	s := op.b.sys
	xfer := s.cfg.Flash.TransferTime(op.res.BusBytes())
	waitAfter := s.k.Now() - op.senseEnd - xfer
	if waitAfter < 0 {
		waitAfter = 0
	}
	wb := op.senseStart - op.cmd.Created
	fl := op.senseEnd - op.senseStart
	s.coll.CommandLifetime(wb, fl, waitAfter, xfer)
	s.coll.AddPhase(metrics.PhaseFlash, fl)
	s.coll.AddPhase(metrics.PhaseChannel, xfer)
	onDone, res := op.onDone, op.res
	op.release()
	onDone(res)
}

// accountDie updates counters for a completed die command and returns
// the children that should dispatch immediately. The returned slice is
// the batch's dieScratch: callers consume or copy it before the next
// accountDie. The caller must invoke stepDone(cmd.Hop) afterwards.
func (b *batchState) accountDie(cmd sampler.Command, res *sampler.Result) []sampler.Command {
	s := b.sys
	if b.id == 0 {
		s.coll.HopEnd(cmd.Hop, s.k.Now())
	}
	b.featBytes += int64(len(res.FeatureBits) * 2)
	now := s.k.Now()
	immediate := b.dieScratch[:0]
	for _, c := range res.Commands {
		c.Created = now
		if s.onSample != nil && !c.Secondary {
			// The command's address names the child's primary section;
			// decode the child id for the observer.
			if child, ok := s.sectionNode(c.Addr); ok {
				s.onSample(res.Node, child, c.Hop)
			}
		}
		if b.registerChildDie(c) {
			immediate = append(immediate, c)
		}
	}
	b.dieScratch = immediate
	return immediate
}

// sectionNode reads the node id of the section at a, following spare
// remaps and relocations to the page's current physical home.
func (s *System) sectionNode(a directgraph.Addr) (uint32, bool) {
	page, ok := s.build.Pages[s.resolvePage(s.layout.Page(a))]
	if !ok {
		return 0, false
	}
	sec, err := directgraph.ViewSection(s.layout, page, s.layout.Section(a))
	return sec.NodeID, err == nil
}
