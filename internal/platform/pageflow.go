package platform

import (
	"beacongnn/internal/graph"
	"beacongnn/internal/metrics"
	"beacongnn/internal/sim"
)

// nodeRead is one unit of page-granular data preparation on the
// platforms without die-level samplers (CC, SmartSage, GList, BG-1,
// BG-DG): read a node's neighbor-list and/or feature pages and, for
// sampling reads, run the sampler in firmware or on the host.
type nodeRead struct {
	node    graph.NodeID
	hop     int  // depth of the node
	sample  bool // read neighbor list and sample children
	feature bool // read the feature vector
	created sim.Time

	// secondary marks a BG-DG DirectGraph secondary-section read whose
	// sampled children were already drawn; they release on completion.
	secondary   bool
	secPage     uint32
	secChildren []graph.NodeID
}

func (r nodeRead) step() int { return r.hop }

// recordBytes returns the raw-format footprint a read must fetch: the
// node record (neighbor list + feature vector, co-located as GList-style
// layouts do) for sampling reads, or just the feature vector.
func (s *System) recordBytes(v graph.NodeID, sample bool) int {
	feat := s.inst.Desc.FeatureDim * 2
	if !sample {
		return feat
	}
	return 4*s.inst.Graph.Degree(v) + feat
}

// appendPages appends the physical pages a read touches to dst and
// returns it. Raw-format data is addressed at the node's DirectGraph
// primary page (the striping is equivalent); multi-page reads use
// consecutive page numbers, which stripe across channels. Callers pass
// the batch's pageScratch: readAllPages/hostRead consume the list
// synchronously, so the buffer is free again when they return.
func (s *System) appendPages(dst []uint32, v graph.NodeID, bytes int) []uint32 {
	ps := s.cfg.Flash.PageSize
	n := (bytes + ps - 1) / ps
	if n < 1 {
		n = 1
	}
	base := s.layout.Page(s.build.NodeAddr(v))
	for i := 0; i < n; i++ {
		dst = append(dst, base+uint32(i))
	}
	return dst
}

// registerChildPage mirrors registerChildDie for page-flow children.
func (b *batchState) registerChildPage(r nodeRead) (dispatchNow bool) {
	b.addWork(r.step())
	if r.secondary || b.sys.caps.OutOfOrder {
		return true
	}
	b.pendPage[r.step()] = append(b.pendPage[r.step()], r)
	return false
}

// dispatchPage routes one node read down the platform's page path.
func (b *batchState) dispatchPage(r nodeRead) {
	s := b.sys
	if r.created == 0 {
		r.created = s.k.Now()
	}
	switch {
	case r.secondary:
		b.fwSecondaryRead(r)
	case s.caps.Sampler == SampleInFirmware:
		b.fwRead(r)
	case r.feature && !r.sample && s.caps.InternalFT:
		// GList: feature lookups are offloaded even though sampling is
		// host-driven.
		b.fwRead(r)
	default:
		b.hostRead(r)
	}
}

// flashPageRead performs one full-page read with lifetime accounting:
// sense, full-page channel transfer, DRAM landing. Per-read state lives
// in a pooled pageOp (pools.go).
func (s *System) flashPageRead(page uint32, created sim.Time, step int, record bool, done func()) {
	op := s.lists.pageOp.Get()
	op.s, op.created, op.step, op.record, op.done = s, created, step, record, done
	s.senseManaged(page, 0, s.ioDeadline(created), op.fnSenseStart, op.fnSenseDone)
}

func (op *pageOp) onSenseStart(at sim.Time) {
	op.senseStart = at
	if op.record {
		// Hop timelines (Fig. 16) track batch 0 only.
		op.s.coll.HopStart(op.step, at)
	}
}

func (op *pageOp) onSenseDone(final uint32) {
	s := op.s
	op.senseEnd = s.k.Now()
	s.backend.TransferDeadline(final, s.cfg.Flash.PageSize, s.ioDeadline(op.created), op.fnXferDone)
}

func (op *pageOp) onXferDone() {
	s := op.s
	ps := s.cfg.Flash.PageSize
	xfer := s.cfg.Flash.TransferTime(ps)
	waitAfter := s.k.Now() - op.senseEnd - xfer
	if waitAfter < 0 {
		waitAfter = 0
	}
	wb := op.senseStart - op.created
	fl := op.senseEnd - op.senseStart
	s.coll.CommandLifetime(wb, fl, waitAfter, xfer)
	s.coll.AddPhase(metrics.PhaseFlash, fl)
	s.coll.AddPhase(metrics.PhaseChannel, xfer)
	done := op.done
	op.release()
	s.dramWrite(ps, done)
}

// readAllPages reads every page of the list through the firmware path
// (translate without DirectGraph + flash scheduling per page). When
// hostBytes > 0, that many sector-rounded bytes per page continue on to
// host memory over PCIe. The pages slice is consumed before returning;
// the per-page chains run on pooled rapOps under one rapGroup.
func (b *batchState) readAllPages(pages []uint32, created sim.Time, step int, hostBytes int, done func()) {
	s := b.sys
	g := s.lists.rapGroup.Get()
	g.b, g.remaining, g.hostBytes = b, len(pages), hostBytes
	g.created, g.step, g.done = created, step, done
	for _, p := range pages {
		op := s.lists.rapOp.Get()
		op.g, op.page = g, p
		cost := s.cfg.Firmware.FlashCmdCost
		if !s.caps.DirectGraph {
			cost += s.cfg.Firmware.TranslateCost
		}
		s.fwPhase(cost)
		s.fw.Do(cost, op.fnStart)
	}
}

func (op *rapOp) onStart() {
	op.g.b.sys.backend.IssueCommand(op.page, op.fnIssued)
}

func (op *rapOp) onIssued() {
	g := op.g
	g.b.sys.flashPageRead(op.page, g.created, g.step, g.b.id == 0, op.fnPageDone)
}

func (op *rapOp) onPageDone() {
	g := op.g
	if g.hostBytes > 0 {
		g.b.sys.dramRead(g.hostBytes, op.fnDramDone)
		return
	}
	op.release()
	g.pageDone()
}

func (op *rapOp) onDramDone() {
	g := op.g
	g.b.sys.pcieData(g.hostBytes, op.fnPcieDone)
}

func (op *rapOp) onPcieDone() {
	g := op.g
	op.release()
	g.pageDone()
}

func (g *rapGroup) pageDone() {
	g.remaining--
	if g.remaining == 0 {
		done := g.done
		g.release()
		done()
	}
}

// fwRead executes a node read with firmware-driven control (SmartSage,
// BG-1, BG-DG, and GList's feature path). Per-read state lives in a
// pooled fwReadOp (pools.go).
func (b *batchState) fwRead(r nodeRead) {
	s := b.sys
	b.pageScratch = b.pageScratch[:0]
	if s.caps.DirectGraph {
		// One primary page holds feature + inline neighbors.
		b.pageScratch = append(b.pageScratch, s.layout.Page(s.build.NodeAddr(r.node)))
	} else {
		b.pageScratch = s.appendPages(b.pageScratch, r.node, s.recordBytes(r.node, r.sample))
	}
	// SmartSage ships feature pages onward to the host via the block
	// interface; sampling data stays inside. (InternalFT platforms keep
	// everything in DRAM.)
	hostBytes := 0
	if !s.caps.InternalFT && !r.sample {
		hostBytes = s.cfg.Flash.PageSize
	}
	op := s.lists.fwReadOp.Get()
	op.b, op.r = b, r
	b.readAllPages(b.pageScratch, r.created, r.step(), hostBytes, op.fnPagesDone)
}

func (op *fwReadOp) onPagesDone() {
	b, s := op.b, op.b.sys
	r := op.r
	if r.feature {
		b.featBytes += int64(s.inst.Desc.FeatureDim * 2)
	}
	if !r.sample {
		op.release()
		if b.id == 0 {
			s.coll.HopEnd(r.step(), s.k.Now())
		}
		b.stepDone(r.step())
		return
	}
	// Firmware neighbor sampling.
	s.fwPhase(s.cfg.Firmware.SampleCostFixed + sim.Time(s.cfg.GNN.Fanout)*s.cfg.Firmware.SampleCostPerNode)
	s.fw.SampleNodes(s.cfg.GNN.Fanout, op.fnSampled)
}

func (op *fwReadOp) onSampled() {
	b, r := op.b, op.r
	op.release()
	s := b.sys
	children := b.drawChildren(r)
	if b.id == 0 {
		s.coll.HopEnd(r.step(), s.k.Now())
	}
	for _, c := range children {
		if b.registerChildPage(c) {
			b.dispatchPage(c)
		}
	}
	b.stepDone(r.step())
}

// fwSecondaryRead reads one BG-DG secondary page whose children were
// drawn during the parent's sampling; they release when it lands.
func (b *batchState) fwSecondaryRead(r nodeRead) {
	op := b.sys.lists.fwSecOp.Get()
	op.b, op.r = b, r
	b.pageScratch = append(b.pageScratch[:0], r.secPage)
	b.readAllPages(b.pageScratch, r.created, r.step(), 0, op.fnPagesDone)
}

func (op *fwSecOp) onPagesDone() {
	s := op.b.sys
	s.fwPhase(s.cfg.Firmware.ResultParseCost)
	s.fw.ParseResult(op.fnParsed)
}

func (op *fwSecOp) onParsed() {
	b, r := op.b, op.r
	op.release()
	s := b.sys
	if b.id == 0 {
		s.coll.HopEnd(r.step(), s.k.Now())
	}
	for _, child := range r.secChildren {
		c := b.childRead(child, r.hop+1)
		if b.registerChildPage(c) {
			b.dispatchPage(c)
		}
	}
	b.stepDone(r.step())
}

// hostRead executes a node read under host control (CC always; GList's
// sampling reads): every page is a full NVMe I/O crossing PCIe, and
// sampling runs on the host CPU. The per-page chains run on pooled
// hostOps under one hostGroup (pools.go).
func (b *batchState) hostRead(r nodeRead) {
	s := b.sys
	bytes := s.recordBytes(r.node, r.sample)
	b.pageScratch = s.appendPages(b.pageScratch[:0], r.node, bytes)
	// Dependent (sampling) reads pay the full software stack; bulk
	// feature fetches batch through io_uring-style submission.
	stack := s.cfg.Host.IOStackCost
	if r.feature && !r.sample {
		stack = s.cfg.Host.BatchedIOCost
	}
	g := s.lists.hostGroup.Get()
	g.b, g.r, g.remaining = b, r, len(b.pageScratch)
	for _, p := range b.pageScratch {
		op := s.lists.hostOp.Get()
		op.g, op.page = g, p
		s.hostDo(stack, op.fnHostDone)
	}
}

func (op *hostOp) onHostDone() {
	op.g.b.sys.pcieData(64, op.fnPcie64)
}

func (op *hostOp) onPcie64() {
	s := op.g.b.sys
	cost := s.cfg.Firmware.PollCost + s.cfg.Firmware.TranslateCost + s.cfg.Firmware.FlashCmdCost
	s.fwPhase(cost)
	s.fw.Do(cost, op.fnFwDone)
}

func (op *hostOp) onFwDone() {
	op.g.b.sys.backend.IssueCommand(op.page, op.fnIssued)
}

func (op *hostOp) onIssued() {
	g := op.g
	g.b.sys.flashPageRead(op.page, g.r.created, g.r.step(), g.b.id == 0, op.fnPageDone)
}

// Block-interface reads are page-granular end to end: the whole page
// crosses DRAM and PCIe (Challenge 2's read amplification).
func (op *hostOp) onPageDone() {
	s := op.g.b.sys
	s.dramRead(s.cfg.Flash.PageSize, op.fnDramDone)
}

func (op *hostOp) onDramDone() {
	s := op.g.b.sys
	s.pcieData(s.cfg.Flash.PageSize, op.fnPcieDone)
}

func (op *hostOp) onPcieDone() {
	g := op.g
	op.release()
	g.remaining--
	if g.remaining == 0 {
		g.b.hostPagesArrived(g)
	}
}

// hostPagesArrived finishes a host-controlled read: feature reads are
// done; sampling reads run the host sampler and spawn children. The
// group carries the read across the host-sampling hand-off.
func (b *batchState) hostPagesArrived(g *hostGroup) {
	s := b.sys
	r := g.r
	if r.feature && !r.sample {
		g.release()
		b.featBytes += int64(s.inst.Desc.FeatureDim * 2)
		if b.id == 0 {
			s.coll.HopEnd(r.step(), s.k.Now())
		}
		b.stepDone(r.step())
		return
	}
	cost := sim.Time(s.cfg.GNN.Fanout) * s.cfg.Host.SampleCostNode
	s.hostDo(cost, g.fnSampled)
}

func (g *hostGroup) onSampled() {
	b, r := g.b, g.r
	g.release()
	s := b.sys
	children := b.drawChildren(r)
	if b.id == 0 {
		s.coll.HopEnd(r.step(), s.k.Now())
	}
	for _, c := range children {
		if b.registerChildPage(c) {
			b.dispatchPage(c)
		}
	}
	b.stepDone(r.step())
}

// drawChildren samples the node's children and expands them into the
// next hop's reads. Raw-format platforms have the full neighbor list in
// hand; BG-DG draws global indices over the DirectGraph plan, turning
// out-of-page draws into coalesced secondary reads. The returned slice
// is the batch's childScratch — callers consume it before the next
// drawChildren call (dispatch copies the values out).
func (b *batchState) drawChildren(r nodeRead) []nodeRead {
	s := b.sys
	g := s.inst.Graph
	deg := g.Degree(r.node)
	if deg == 0 || r.hop >= s.cfg.GNN.Hops {
		return nil
	}
	now := s.k.Now()
	out := b.childScratch[:0]
	if !s.caps.DirectGraph {
		for i := 0; i < s.cfg.GNN.Fanout; i++ {
			child := g.Neighbor(r.node, s.rng.Intn(deg))
			out = append(out, b.childRead(child, r.hop+1))
		}
		b.childScratch = out
		return out
	}
	// BG-DG: DirectGraph-aware drawing with secondary coalescing. The
	// per-index buckets reuse the batch's coalesce table; bucket
	// contents are handed off to the secondary reads, so used entries
	// reset to nil and reallocate on the next draw.
	plan := &s.build.Plans[r.node]
	if cap(b.coalesce) < plan.SecCount {
		b.coalesce = make([][]graph.NodeID, plan.SecCount)
	}
	co := b.coalesce[:plan.SecCount]
	for i := range co {
		co[i] = nil
	}
	b.coalesce = co
	for i := 0; i < s.cfg.GNN.Fanout; i++ {
		idx := s.rng.Intn(deg)
		child := g.Neighbor(r.node, idx)
		if idx < plan.InlineCount {
			out = append(out, b.childRead(child, r.hop+1))
			continue
		}
		si := plan.SecondaryIndexFor(idx)
		co[si] = append(co[si], child)
	}
	for si := 0; si < plan.SecCount; si++ {
		kids := co[si]
		if len(kids) == 0 {
			continue
		}
		co[si] = nil
		out = append(out, nodeRead{
			node: r.node, hop: r.hop, secondary: true,
			secPage:     s.layout.Page(plan.Secondaries[si]),
			secChildren: kids,
			created:     now,
		})
	}
	b.childScratch = out
	return out
}

// childRead expands one sampled child node into its read at the given
// depth: a sampling read (plus a raw-format feature read) below the
// final hop, or a feature-only read at the final hop.
func (b *batchState) childRead(child graph.NodeID, hop int) nodeRead {
	s := b.sys
	now := s.k.Now()
	if hop >= s.cfg.GNN.Hops {
		return nodeRead{node: child, hop: hop, feature: true, created: now}
	}
	// One read covers sampling and feature: DirectGraph primaries hold
	// both by construction, and raw layouts co-locate the node record.
	return nodeRead{node: child, hop: hop, sample: true, feature: true, created: now}
}
