package platform

import (
	"beacongnn/internal/graph"
	"beacongnn/internal/sim"
)

// nodeRead is one unit of page-granular data preparation on the
// platforms without die-level samplers (CC, SmartSage, GList, BG-1,
// BG-DG): read a node's feature pages, with its neighbor list for
// sampling reads, and for those run the sampler in firmware or on the
// host.
type nodeRead struct {
	node    graph.NodeID
	hop     int  // depth of the node
	sample  bool // also read the neighbor list and sample children
	created sim.Time

	// secondary marks a BG-DG DirectGraph secondary-section read whose
	// sampled children were already drawn; they release on completion.
	// secChildren is a view of the batch's secKids.
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
// the batch's pageScratch: readPages consumes the list
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

// dispatchPage routes one node read down the platform's page path: it
// picks the pages and who drives them, then hands off to readPages.
func (b *batchState) dispatchPage(r nodeRead) {
	s := b.sys
	fw := &s.cfg.Firmware
	if r.created == 0 {
		r.created = s.k.Now()
	}
	pages := b.pageScratch[:0]
	switch {
	case r.secondary:
		pages = append(pages, r.secPage)
	case s.caps.DirectGraph:
		// One primary page holds feature + inline neighbors.
		pages = append(pages, s.layout.Page(s.build.NodeAddr(r.node)))
	default:
		pages = s.appendPages(pages, r.node, s.recordBytes(r.node, r.sample))
	}
	b.pageScratch = pages
	if s.caps.Sampler == SampleInFirmware || (!r.sample && s.caps.InternalFT) {
		// Firmware-driven control (SmartSage, BG-1, BG-DG, and GList's
		// offloaded feature lookups): translate without DirectGraph,
		// then schedule the flash command. SmartSage ships feature
		// pages onward to the host via the block interface; sampling
		// data stays inside, and InternalFT platforms keep everything
		// in DRAM.
		cost := fw.FlashCmdCost
		if !s.caps.DirectGraph {
			cost += fw.TranslateCost
		}
		hostBytes := 0
		if !s.caps.InternalFT && !r.sample {
			hostBytes = s.cfg.Flash.PageSize
		}
		b.readPages(r, pages, false, 0, cost, hostBytes)
		return
	}
	// Host control (CC always; GList's sampling reads): every page is a
	// full NVMe I/O crossing PCIe, and sampling runs on the host CPU.
	// Dependent (sampling) reads pay the full software stack; bulk
	// feature fetches batch through io_uring-style submission.
	stack := s.cfg.Host.IOStackCost
	if !r.sample {
		stack = s.cfg.Host.BatchedIOCost
	}
	b.readPages(r, pages, true, stack, fw.PollCost+fw.TranslateCost+fw.FlashCmdCost, s.cfg.Flash.PageSize)
}

// readPages reads a node's pages and then runs r's next step (arrived).
// Each page is one pooled readPageOp: a host-controlled page first pays
// the I/O stack and a 64 B doorbell; every page then pays fwCost in
// firmware, is issued, sensed, transferred and lands in DRAM; when
// hostBytes > 0 that many bytes per page continue on to host memory
// over PCIe. The pages slice is consumed before returning.
func (b *batchState) readPages(r nodeRead, pages []uint32, host bool, stack, fwCost sim.Time, hostBytes int) {
	s := b.sys
	op := s.lists.readOp.Get()
	op.b, op.r, op.remaining = b, r, len(pages)
	op.host, op.fwCost, op.hostBytes = host, fwCost, hostBytes
	for _, p := range pages {
		pg := s.lists.readPageOp.Get()
		pg.op, pg.page = op, p
		if host {
			s.hostDo(stack, pg.fnHostDone)
		} else {
			pg.submit()
		}
	}
}

func (pg *readPageOp) onHostDone() { pg.op.b.sys.pcieData(64, pg.fnDoorbell) }

// submit hands the page to the firmware's flash scheduler.
func (pg *readPageOp) submit() {
	pg.op.b.sys.fwDo(pg.op.fwCost, pg.fnFwDone)
}

func (pg *readPageOp) onFwDone() { pg.op.b.sys.backend.IssueCommand(pg.page, pg.fnIssued) }

func (pg *readPageOp) onIssued() {
	s := pg.op.b.sys
	s.senseManaged(pg.page, 0, s.ioDeadline(pg.op.r.created), pg.fnSenseStart, pg.fnSenseDone)
}

func (pg *readPageOp) onSenseStart(at sim.Time) {
	pg.senseStart = at
	if op := pg.op; op.b.id == 0 {
		// Hop timelines (Fig. 16) track batch 0 only.
		op.b.sys.coll.HopStart(op.r.step(), at)
	}
}

func (pg *readPageOp) onSenseDone(final uint32) {
	s := pg.op.b.sys
	pg.senseEnd = s.k.Now()
	s.backend.Transfer(final, s.cfg.Flash.PageSize, s.ioDeadline(pg.op.r.created), pg.fnXferDone)
}

func (pg *readPageOp) onXferDone() {
	s := pg.op.b.sys
	s.commandDone(pg.op.r.created, pg.senseStart, pg.senseEnd, s.cfg.Flash.PageSize)
	s.dramData(s.cfg.Flash.PageSize, pg.fnLanded)
}

// onLanded runs once the page is in SSD DRAM. Block-interface reads
// are page-granular end to end: the whole page crosses DRAM and PCIe
// (Challenge 2's read amplification).
func (pg *readPageOp) onLanded() {
	if n := pg.op.hostBytes; n > 0 {
		pg.op.b.sys.dramData(n, pg.fnDramDone)
		return
	}
	pg.pageDone()
}

func (pg *readPageOp) onDramDone() { pg.op.b.sys.pcieData(pg.op.hostBytes, pg.fnPageDone) }

// pageDone retires the page; the read's last page runs arrived.
func (pg *readPageOp) pageDone() {
	op := pg.op
	pg.release()
	if op.remaining--; op.remaining == 0 {
		op.arrived()
	}
}

// arrived runs once every page of the read has landed: a secondary
// read's children release after the firmware parses the section,
// sampling reads run the host or firmware sampler, and feature reads
// are done.
func (op *readOp) arrived() {
	s, r := op.b.sys, op.r
	switch {
	case r.secondary:
		s.fwDo(s.cfg.Firmware.ResultParseCost, op.fnParsed)
	case !r.sample:
		b := op.b
		op.release()
		b.readDone(r, nil)
	case op.host:
		s.hostDo(sim.Time(s.cfg.GNN.Fanout)*s.cfg.Host.SampleCostNode, op.fnSampled)
	default:
		s.fwDo(s.cfg.Firmware.SampleCostFixed+sim.Time(s.cfg.GNN.Fanout)*s.cfg.Firmware.SampleCostPerNode, op.fnSampled)
	}
}

func (op *readOp) onSampled() {
	b, r := op.b, op.r
	op.release()
	b.readDone(r, b.drawChildren(r))
}

func (op *readOp) onParsed() {
	b, r := op.b, op.r
	out := b.childScratch[:0]
	for _, child := range r.secChildren {
		out = append(out, b.childRead(child, r.hop+1))
	}
	b.childScratch = out
	op.release()
	b.readDone(r, out)
}

// readDone finishes node read r: it closes the read's hop span,
// dispatches the children it produced and retires its step.
func (b *batchState) readDone(r nodeRead, children []nodeRead) {
	if b.id == 0 {
		b.sys.coll.HopEnd(r.step(), b.sys.k.Now())
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
	// per-index buckets reuse the batch's coalesce table and keep their
	// arrays from draw to draw; each secondary read's children move on
	// to the batch's secKids.
	plan := &s.build.Plans[r.node]
	co := resizeEmpty(b.coalesce, plan.SecCount)
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
		if len(co[si]) == 0 {
			continue
		}
		start := len(b.secKids)
		b.secKids = append(b.secKids, co[si]...)
		out = append(out, nodeRead{
			node: r.node, hop: r.hop, secondary: true,
			secPage:     s.layout.Page(plan.Secondaries[si]),
			secChildren: b.secKids[start:],
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
		return nodeRead{node: child, hop: hop, created: now}
	}
	// One read covers sampling and feature: DirectGraph primaries hold
	// both by construction, and raw layouts co-locate the node record.
	return nodeRead{node: child, hop: hop, sample: true, created: now}
}
