package platform

import (
	"beacongnn/internal/fault"
	"beacongnn/internal/pool"
	"beacongnn/internal/sampler"
	"beacongnn/internal/sim"
	"beacongnn/internal/xrand"
)

// Pooled request-path state machines. Each hot closure chain in the data
// path is flattened into a struct whose continuation funcs are bound once
// in its shelf's constructor (method values allocate, so the funcs are
// captured into fields). Every System owns one free list per type
// (lists), drawn from the type's shelf at first use and handed back
// when Run returns. Reset discipline: release() clears every reference
// field before Put, and callers that invoke a final callback copy it to
// a local, release, then call — the object must never be touched after
// Put. pool.Disable turns all of this into fresh allocation for the
// determinism tests.

// lists are a System's free lists, one per pooled type.
type lists struct {
	senseCtx  pool.List[senseCtx]
	pageOp    pool.List[pageOp]
	execOp    pool.List[execOp]
	dieOp     pool.List[dieOp]
	rtrOp     pool.List[rtrOp]
	rapGroup  pool.List[rapGroup]
	rapOp     pool.List[rapOp]
	fwReadOp  pool.List[fwReadOp]
	fwSecOp   pool.List[fwSecOp]
	hostGroup pool.List[hostGroup]
	hostOp    pool.List[hostOp]
	batch     pool.List[batchState]
	result    pool.List[sampler.Result]
	trng      pool.List[trngSlab]
}

func newLists() lists {
	return lists{
		senseCtx: senseCtxShelf.List(), pageOp: pageOpShelf.List(),
		execOp: execOpShelf.List(), dieOp: dieOpShelf.List(), rtrOp: rtrOpShelf.List(),
		rapGroup: rapGroupShelf.List(), rapOp: rapOpShelf.List(),
		fwReadOp: fwReadOpShelf.List(), fwSecOp: fwSecOpShelf.List(),
		hostGroup: hostGroupShelf.List(), hostOp: hostOpShelf.List(),
		batch: batchShelf.List(), result: resultShelf.List(),
		trng: trngShelf.List(),
	}
}

// release hands every list back to its shelf for the next run.
func (l *lists) release() {
	l.senseCtx.Release()
	l.pageOp.Release()
	l.execOp.Release()
	l.dieOp.Release()
	l.rtrOp.Release()
	l.rapGroup.Release()
	l.rapOp.Release()
	l.fwReadOp.Release()
	l.fwSecOp.Release()
	l.hostGroup.Release()
	l.hostOp.Release()
	l.batch.Release()
	l.result.Release()
	l.trng.Release()
}

// senseCtx carries one senseManaged request through the fault-recovery
// ladder in fault.go.
type senseCtx struct {
	s          *System
	page, rp   uint32
	dieExtra   sim.Time
	ioDL       sim.Time // EDF scheduling deadline (0 = none)
	senseStart func(sim.Time)
	done       func(final uint32)
	attempt    int
	deadline   sim.Time // fault-recovery ladder deadline (CmdDeadline)

	fnOutcome func(fault.Outcome)
	fnRetry   func()
}

var senseCtxShelf = pool.NewShelf(func() *senseCtx {
	c := &senseCtx{}
	c.fnOutcome = c.onOutcome
	c.fnRetry = func() { c.s.senseAttempt(c) }
	return c
})

func (c *senseCtx) release() {
	s := c.s
	c.s, c.senseStart, c.done = nil, nil, nil
	s.lists.senseCtx.Put(c)
}

// pageOp carries one flashPageRead (page platforms) through
// sense → channel transfer → DRAM landing, with lifetime accounting.
type pageOp struct {
	s       *System
	created sim.Time
	step    int
	record  bool
	done    func()

	senseStart, senseEnd sim.Time

	fnSenseStart func(sim.Time)
	fnSenseDone  func(uint32)
	fnXferDone   func()
}

var pageOpShelf = pool.NewShelf(func() *pageOp {
	op := &pageOp{}
	op.fnSenseStart = op.onSenseStart
	op.fnSenseDone = op.onSenseDone
	op.fnXferDone = op.onXferDone
	return op
})

func (op *pageOp) release() {
	s := op.s
	op.s, op.done = nil, nil
	s.lists.pageOp.Put(op)
}

// execOp carries one execDie (die platforms) through
// sense+sample → channel transfer, with lifetime accounting.
type execOp struct {
	b       *batchState
	cmd     sampler.Command
	onSense func()
	onDone  func(*sampler.Result)
	res     *sampler.Result

	senseStart, senseEnd sim.Time

	fnSenseStart func(sim.Time)
	fnSenseDone  func(uint32)
	fnXferDone   func()
}

var execOpShelf = pool.NewShelf(func() *execOp {
	op := &execOp{}
	op.fnSenseStart = op.onSenseStart
	op.fnSenseDone = op.onSenseDone
	op.fnXferDone = op.onXferDone
	return op
})

func (op *execOp) release() {
	s := op.b.sys
	op.b, op.onSense, op.onDone, op.res = nil, nil, nil, nil
	s.lists.execOp.Put(op)
}

// dieOp carries one firmware-scheduled die command (BG-SP, BG-DGSP)
// through fw scheduling → command issue → execDie → result DMA → parse.
type dieOp struct {
	b   *batchState
	cmd sampler.Command
	res *sampler.Result

	fnFwDone   func()
	fnIssued   func()
	fnExecDone func(*sampler.Result)
	fnDramDone func()
	fnParsed   func()
}

var dieOpShelf = pool.NewShelf(func() *dieOp {
	op := &dieOp{}
	op.fnFwDone = op.onFwDone
	op.fnIssued = op.onIssued
	op.fnExecDone = op.onExecDone
	op.fnDramDone = op.onDramDone
	op.fnParsed = op.onParsed
	return op
})

func (op *dieOp) release() {
	s := op.b.sys
	op.b, op.res = nil, nil
	s.lists.dieOp.Put(op)
}

// rtrOp is the per-command state of the BG-2 hardware data path wired in
// NewSystem: die executes, feature DMAs to DRAM, children stream back to
// the router's parser.
type rtrOp struct {
	s    *System
	b    *batchState
	cmd  sampler.Command
	done func([]sampler.Command)

	fnExecDone func(*sampler.Result)
}

var rtrOpShelf = pool.NewShelf(func() *rtrOp {
	op := &rtrOp{}
	op.fnExecDone = op.onExecDone
	return op
})

func (op *rtrOp) release() {
	s := op.s
	op.s, op.b, op.done = nil, nil, nil
	s.lists.rtrOp.Put(op)
}

func (op *rtrOp) onExecDone(res *sampler.Result) {
	s, b, cmd, done := op.s, op.b, op.cmd, op.done
	op.release()
	if n := len(res.Features); n > 0 {
		s.dramWrite(n, nil)
	}
	children := b.accountDie(cmd, res)
	s.putResult(res)
	done(children) // the router copies children before yielding
	b.stepDone(cmd.Hop)
}

// resultShelf recycles die-sampler Results: execDie fills one through
// sampler.ExecuteInto and the consumer (dieOp.onParsed, rtrOp.onExecDone)
// puts it back once accountDie has read it. Besides its own slices,
// whose backing arrays are what the list reuses, a Result references
// only the page its feature bytes alias, which putResult drops.
var resultShelf = pool.NewShelf(func() *sampler.Result { return &sampler.Result{} })

// putResult returns a Result to the System's list. Dropping the feature
// view keeps an idle Result from pinning the dataset's page image.
func (s *System) putResult(res *sampler.Result) {
	res.Features = nil
	s.lists.result.Put(res)
}

// rapGroup fans one readAllPages call across its pages; rapOp is the
// per-page chain (fw scheduling → issue → flashPageRead → optional
// DRAM+PCIe continuation to the host).
type rapGroup struct {
	b         *batchState
	remaining int
	hostBytes int
	created   sim.Time
	step      int
	done      func()
}

type rapOp struct {
	g    *rapGroup
	page uint32

	fnStart    func()
	fnIssued   func()
	fnPageDone func()
	fnDramDone func()
	fnPcieDone func()
}

var (
	rapGroupShelf = pool.NewShelf(func() *rapGroup { return &rapGroup{} })
	rapOpShelf    = pool.NewShelf(func() *rapOp {
		op := &rapOp{}
		op.fnStart = op.onStart
		op.fnIssued = op.onIssued
		op.fnPageDone = op.onPageDone
		op.fnDramDone = op.onDramDone
		op.fnPcieDone = op.onPcieDone
		return op
	})
)

func (g *rapGroup) release() {
	s := g.b.sys
	g.b, g.done = nil, nil
	s.lists.rapGroup.Put(g)
}

func (op *rapOp) release() {
	s := op.g.b.sys
	op.g = nil
	s.lists.rapOp.Put(op)
}

// fwReadOp carries one firmware-driven node read (fwRead) across the
// page fan-out and the firmware sampling step.
type fwReadOp struct {
	b *batchState
	r nodeRead

	fnPagesDone func()
	fnSampled   func()
}

var fwReadOpShelf = pool.NewShelf(func() *fwReadOp {
	op := &fwReadOp{}
	op.fnPagesDone = op.onPagesDone
	op.fnSampled = op.onSampled
	return op
})

func (op *fwReadOp) release() {
	s := op.b.sys
	op.b, op.r = nil, nodeRead{}
	s.lists.fwReadOp.Put(op)
}

// fwSecOp carries one BG-DG secondary-section read (fwSecondaryRead).
type fwSecOp struct {
	b *batchState
	r nodeRead

	fnPagesDone func()
	fnParsed    func()
}

var fwSecOpShelf = pool.NewShelf(func() *fwSecOp {
	op := &fwSecOp{}
	op.fnPagesDone = op.onPagesDone
	op.fnParsed = op.onParsed
	return op
})

func (op *fwSecOp) release() {
	s := op.b.sys
	op.b, op.r = nil, nodeRead{}
	s.lists.fwSecOp.Put(op)
}

// hostGroup fans one host-controlled node read (hostRead) across its
// pages; hostOp is the per-page NVMe I/O chain. The group doubles as the
// host-sampling continuation once every page has arrived.
type hostGroup struct {
	b         *batchState
	r         nodeRead
	remaining int

	fnSampled func()
}

type hostOp struct {
	g    *hostGroup
	page uint32

	fnHostDone func()
	fnPcie64   func()
	fnFwDone   func()
	fnIssued   func()
	fnPageDone func()
	fnDramDone func()
	fnPcieDone func()
}

var (
	hostGroupShelf = pool.NewShelf(func() *hostGroup {
		g := &hostGroup{}
		g.fnSampled = g.onSampled
		return g
	})
	hostOpShelf = pool.NewShelf(func() *hostOp {
		op := &hostOp{}
		op.fnHostDone = op.onHostDone
		op.fnPcie64 = op.onPcie64
		op.fnFwDone = op.onFwDone
		op.fnIssued = op.onIssued
		op.fnPageDone = op.onPageDone
		op.fnDramDone = op.onDramDone
		op.fnPcieDone = op.onPcieDone
		return op
	})
)

func (g *hostGroup) release() {
	s := g.b.sys
	g.b, g.r = nil, nodeRead{}
	s.lists.hostGroup.Put(g)
}

func (op *hostOp) release() {
	s := op.g.b.sys
	op.g = nil
	s.lists.hostOp.Put(op)
}

// batchShelf recycles batchState across batches and runs; newBatch
// resizes the per-hop slices and release clears every reference.
var batchShelf = pool.NewShelf(func() *batchState {
	b := &batchState{}
	b.fnTranslated = b.onTranslated
	b.fnRoundTrip = b.onRoundTrip
	b.fnAddrsIn = b.onAddrsIn
	b.fnPolled = b.onPolled
	return b
})

// trngSlab holds a System's per-die TRNGs in one array. The sources
// hold no references, so a slab needs no reset: NewSystem reseeds every
// die it uses.
type trngSlab struct{ die []xrand.Source }

var trngShelf = pool.NewShelf(func() *trngSlab { return &trngSlab{} })

// resizeZero returns s with length n and every element zeroed, reusing
// the backing array when it is large enough.
func resizeZero[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// resizeEmpty returns s with length n and every element emptied,
// keeping the elements' arrays, including those past n.
func resizeEmpty[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]T, n-cap(s))...)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}
