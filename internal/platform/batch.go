package platform

import (
	"fmt"

	"beacongnn/internal/config"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
	"beacongnn/internal/metrics"
	"beacongnn/internal/sampler"
	"beacongnn/internal/sim"
	"beacongnn/internal/xrand"
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
	done        func()
	finished    bool

	// The host round in flight (see hostRound): its step, its node
	// count, the translations still running, and the batch's targets.
	roundStep, roundN, roundLeft int
	targets                      []graph.NodeID

	// Scratch buffers reused across the batch's reads. They are only
	// ever consumed synchronously by their producer's caller, so one of
	// each per batch suffices (the kernel is single-threaded).
	pageScratch  []uint32          // page fan-out lists (appendPages)
	childScratch []nodeRead        // drawChildren output
	coalesce     [][]graph.NodeID  // BG-DG secondary coalescing, by index
	secKids      []graph.NodeID    // BG-DG secondary reads' children, until the batch ends
	dieScratch   []sampler.Command // accountDie output
	targetBuf    []graph.NodeID    // drawTargets output

	fnTranslated, fnRoundTrip, fnAddrsIn, fnPolled func()
}

func (s *System) newBatch(id int, done func()) *batchState {
	hops := s.cfg.GNN.Hops
	b := s.lists.batch.Get()
	b.sys, b.id, b.done = s, int32(id), done
	b.outstanding, b.finished = 0, false
	b.hopOut = resizeZero(b.hopOut, hops+1)
	b.pendDie = resizeEmpty(b.pendDie, hops+2)
	b.pendPage = resizeEmpty(b.pendPage, hops+2)
	b.fired = resizeZero(b.fired, hops+2)
	return b
}

// release returns the batch to the System's list once finish has run
// its completion callback; nothing references the batch past that point
// (outstanding hit zero, so no command in flight can name it). The
// buffers keep their arrays for the next batch.
func (b *batchState) release() {
	s := b.sys
	b.sys, b.done, b.targets = nil, nil, nil
	for i := range b.pendDie {
		b.pendDie[i] = b.pendDie[i][:0]
	}
	for i := range b.pendPage {
		b.pendPage[i] = b.pendPage[i][:0]
	}
	b.pageScratch = b.pageScratch[:0]
	b.dieScratch = b.dieScratch[:0]
	b.childScratch = b.childScratch[:0]
	b.secKids = b.secKids[:0]
	s.lists.batch.Put(b)
}

// drawTargets appends one mini-batch's target nodes, drawn from the
// system RNG, to dst.
func drawTargets(dst []graph.NodeID, rng *xrand.Source, numNodes int, gnn config.GNN) []graph.NodeID {
	for t := 0; t < gnn.BatchSize; t++ {
		if skew := gnn.TargetSkew; skew > 0 {
			dst = append(dst, graph.NodeID(rng.Zipf(numNodes, skew)))
		} else {
			dst = append(dst, graph.NodeID(rng.Intn(numNodes)))
		}
	}
	return dst
}

// prepBatch starts batch i's data preparation and calls done when every
// feature vector and subgraph edge for the batch is in place.
func (s *System) prepBatch(i int, done func()) {
	b := s.newBatch(i, done)
	for len(s.batches) <= i {
		s.batches = append(s.batches, nil)
	}
	s.batches[i] = b
	if s.targetSource != nil {
		b.targets = s.targetSource(i)
		if len(b.targets) != s.cfg.GNN.BatchSize {
			panic(fmt.Sprintf("platform: target source returned %d targets, want %d", len(b.targets), s.cfg.GNN.BatchSize))
		}
	} else {
		b.targetBuf = drawTargets(b.targetBuf[:0], &s.rng, s.inst.Graph.NumNodes(), s.cfg.GNN)
		b.targets = b.targetBuf
	}
	// Mini-batch start (Section VI-D): the host looks up each target's
	// primary-section address (or LPA), sends one customized NVMe
	// command, and the firmware polls it.
	b.hostRound(0, len(b.targets))
}

// hostRound runs one host round of the batch over n nodes: the host
// translates each node (node index → LPA / section address), the
// addresses cross PCIe in one customized NVMe command, and the firmware
// polls it. Round 0 starts the batch and launches its targets. Each
// later round is the inter-hop barrier of its step (Challenge 1,
// Fig. 5): the sampled results first return to the host, and the
// step's buffered children dispatch once the firmware has polled. A
// batch has at most one round in flight, since a barrier fires only
// after every read of the step before it has finished.
func (b *batchState) hostRound(step, n int) {
	s := b.sys
	b.roundStep, b.roundN, b.roundLeft = step, n, n
	for i := 0; i < n; i++ {
		s.hostDo(s.cfg.Host.TranslateCost, b.fnTranslated)
	}
}

func (b *batchState) onTranslated() {
	if b.roundLeft--; b.roundLeft > 0 {
		return
	}
	if b.roundStep == 0 {
		b.onRoundTrip()
		return
	}
	s := b.sys
	s.coll.AddPhase(metrics.PhaseHost, s.cfg.Host.HopRoundTrip)
	s.k.After(s.cfg.Host.HopRoundTrip, b.fnRoundTrip)
}

func (b *batchState) onRoundTrip() { b.sys.pcieData(8*b.roundN, b.fnAddrsIn) }

func (b *batchState) onAddrsIn() {
	s := b.sys
	s.fwDo(s.cfg.Firmware.PollCost, b.fnPolled)
}

func (b *batchState) onPolled() {
	if b.roundStep == 0 {
		b.sys.launchTargets(b, b.targets)
		return
	}
	now := b.sys.k.Now()
	step := b.roundStep
	die, page := b.pendDie[step], b.pendPage[step]
	for _, c := range die {
		c.Created = now
		b.dispatchDie(c)
	}
	for _, r := range page {
		r.created = now
		b.dispatchPage(r)
	}
	// Every read of the step before has finished, so no child joins
	// this step's buffers again: empty them, keeping their arrays.
	b.pendDie[step], b.pendPage[step] = die[:0], page[:0]
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
		b.dispatchPage(nodeRead{node: tgt, hop: 0, sample: true, created: s.k.Now()})
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
			b.hostRound(next, len(b.pendDie[next])+len(b.pendPage[next]))
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
	s.batches[b.id] = nil
	b.done()
	b.release()
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
		s.rtr.Route(cmd)
		return
	}
	cost := s.cfg.Firmware.FlashCmdCost
	if !s.caps.DirectGraph {
		cost += s.cfg.Firmware.TranslateCost
	}
	op := s.lists.dieOp.Get()
	op.b, op.cmd = b, cmd
	s.fwDo(cost, op.fnFwDone)
}

func (op *dieOp) onFwDone() {
	s := op.b.sys
	page := s.resolvePage(s.layout.Page(op.cmd.Addr))
	s.backend.IssueCommand(page, op.fnIssued)
}

func (op *dieOp) onIssued() {
	op.b.execDie(op.cmd, op, nil, nil)
}

func (op *dieOp) onExecDone(res *sampler.Result) {
	// Results DMA into DRAM and the firmware parses them.
	op.res = res
	op.b.sys.dramData(res.BusBytes(), op.fnDramDone)
}

func (op *dieOp) onDramDone() {
	s := op.b.sys
	s.fwDo(s.cfg.Firmware.ResultParseCost, op.fnParsed)
}

func (op *dieOp) onParsed() {
	b, cmd, res := op.b, op.cmd, op.res
	op.release()
	children := b.accountDie(cmd, res)
	b.sys.putResult(res)
	for _, c := range children {
		b.dispatchDie(c)
	}
	b.stepDone(cmd.Hop)
}

// execDie performs the die-level read + sample + result transfer. A
// firmware-scheduled command (BG-SP, BG-DGSP) passes its dieOp, which
// resumes with the result once the channel releases it. A routed
// command (BG-2) passes the router's release, which fires when the
// die's array is free again (data in the cache register), and done, the
// router's parser; execOp.onXferDone then finishes the command in
// hardware. Per-command state lives in a pooled execOp (pools.go).
func (b *batchState) execDie(cmd sampler.Command, fw *dieOp, release func(), done func([]sampler.Command)) {
	s := b.sys
	page := s.layout.Page(cmd.Addr)
	draws := cmd.SampleCount
	if draws <= 0 {
		draws = s.cfg.GNN.Fanout
	}
	extra := s.cfg.DieSampler.Fixed + sim.Time(draws)*s.cfg.DieSampler.PerDraw
	op := s.lists.execOp.Get()
	op.b, op.cmd, op.fw, op.onSense, op.routed = b, cmd, fw, release, done
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
	img := s.imagePage(s.layout.Page(op.cmd.Addr))
	pageBytes, ok := s.build.Page(img)
	if !ok {
		// A command addressing a hole in the image is recoverable at
		// the run level (the batch cannot finish, the run fails with
		// context) — not a process-crashing invariant.
		cmd := op.cmd
		op.release()
		s.fail(fmt.Errorf("platform: command addresses unmaterialized page %d (batch %d hop %d)", img, cmd.Batch, cmd.Hop))
		return
	}
	die := s.backend.Geometry().GlobalDie(final)
	// The die's section iterator reads the image page's bytes in place,
	// so a relocated page is always seen as it is now; a spare remap
	// changes only the physical page, final.
	res := s.lists.result.Get()
	if err := sampler.ExecuteInto(res, s.layout, pageBytes, op.cmd, s.samplerCfg, &s.trng.die[die]); err != nil {
		// Section VI-E: the sampler aborts and control returns to
		// firmware. The run fails with context instead of crashing.
		s.putResult(res)
		op.release()
		s.fail(fmt.Errorf("platform: die sampler failed on page %d: %w", final, err))
		return
	}
	op.res = res
	s.meter.FlashSampleOp()
	if op.onSense != nil {
		op.onSense()
	}
	s.backend.Transfer(final, res.BusBytes(), s.ioDeadline(op.cmd.Created), op.fnXferDone)
}

func (op *execOp) onXferDone() {
	s, b, cmd, res := op.b.sys, op.b, op.cmd, op.res
	s.commandDone(cmd.Created, op.senseStart, op.senseEnd, res.BusBytes())
	fw, routed := op.fw, op.routed
	op.release()
	if fw != nil {
		fw.onExecDone(res)
		return
	}
	// BG-2's hardware data path: the feature DMAs to DRAM, children
	// stream back to the router's parser and the batch counters
	// advance, with no embedded core on the way.
	if n := len(res.Features); n > 0 {
		s.dramData(n, nil)
	}
	children := b.accountDie(cmd, res)
	s.putResult(res)
	routed(children) // the router copies children before yielding
	b.stepDone(cmd.Hop)
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

// sectionNode reads the node id of the section at a, following
// relocations to the page's place in the current image.
func (s *System) sectionNode(a directgraph.Addr) (uint32, bool) {
	page, ok := s.build.Page(s.imagePage(s.layout.Page(a)))
	if !ok {
		return 0, false
	}
	sec, err := directgraph.ViewSection(s.layout, page, s.layout.Section(a))
	return sec.NodeID, err == nil
}
