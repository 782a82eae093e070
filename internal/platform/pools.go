package platform

import (
	"beacongnn/internal/fault"
	"beacongnn/internal/pool"
	"beacongnn/internal/sampler"
	"beacongnn/internal/sim"
)

// Pooled request-path state machines. Each hot closure chain in the data
// path is flattened into a struct whose continuation funcs are bound once
// in the pool constructor (method values allocate, so the funcs are
// captured into fields). Reset discipline: release() clears every
// reference field before Put, and callers that invoke a final callback
// copy it to a local, release, then call — the object must never be
// touched after Put. pool.Disable turns all of this into fresh
// allocation for the determinism tests.

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

// The pools are wired in init: constructors reference methods whose
// release path references the pool back, which package-level initializer
// expressions reject as an initialization cycle.
var senseCtxPool *pool.Pool[senseCtx]

func init() {
	senseCtxPool = pool.New(func() *senseCtx {
		c := &senseCtx{}
		c.fnOutcome = c.onOutcome
		c.fnRetry = func() { c.s.senseAttempt(c) }
		return c
	})
}

func (c *senseCtx) release() {
	c.s, c.senseStart, c.done = nil, nil, nil
	senseCtxPool.Put(c)
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

var pageOpPool *pool.Pool[pageOp]

func (op *pageOp) release() {
	op.s, op.done = nil, nil
	pageOpPool.Put(op)
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

var execOpPool *pool.Pool[execOp]

func (op *execOp) release() {
	op.b, op.onSense, op.onDone, op.res = nil, nil, nil, nil
	execOpPool.Put(op)
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

var dieOpPool *pool.Pool[dieOp]

func (op *dieOp) release() {
	op.b, op.res = nil, nil
	dieOpPool.Put(op)
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

var rtrOpPool *pool.Pool[rtrOp]

func (op *rtrOp) release() {
	op.s, op.b, op.done = nil, nil, nil
	rtrOpPool.Put(op)
}

func (op *rtrOp) onExecDone(res *sampler.Result) {
	s, b, cmd, done := op.s, op.b, op.cmd, op.done
	op.release()
	if n := len(res.FeatureBits) * 2; n > 0 {
		s.dramWrite(n, nil)
	}
	children := b.accountDie(cmd, res)
	resultPool.Put(res)
	done(children) // the router copies children before yielding
	b.stepDone(cmd.Hop)
}

// resultPool recycles die-sampler Results: execDie fills one through
// sampler.ExecuteInto and the consumer (dieOp.onParsed, rtrOp.onExecDone)
// puts it back once accountDie has read it. A Result holds no pointers
// beyond its own slices, whose backing arrays are what the pool reuses.
var resultPool = pool.New(func() *sampler.Result { return &sampler.Result{} })

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
	rapGroupPool *pool.Pool[rapGroup]
	rapOpPool    *pool.Pool[rapOp]
)

func (g *rapGroup) release() {
	g.b, g.done = nil, nil
	rapGroupPool.Put(g)
}

func (op *rapOp) release() {
	op.g = nil
	rapOpPool.Put(op)
}

// fwReadOp carries one firmware-driven node read (fwRead) across the
// page fan-out and the firmware sampling step.
type fwReadOp struct {
	b *batchState
	r nodeRead

	fnPagesDone func()
	fnSampled   func()
}

var fwReadOpPool *pool.Pool[fwReadOp]

func (op *fwReadOp) release() {
	op.b, op.r = nil, nodeRead{}
	fwReadOpPool.Put(op)
}

// fwSecOp carries one BG-DG secondary-section read (fwSecondaryRead).
type fwSecOp struct {
	b *batchState
	r nodeRead

	fnPagesDone func()
	fnParsed    func()
}

var fwSecOpPool *pool.Pool[fwSecOp]

func (op *fwSecOp) release() {
	op.b, op.r = nil, nodeRead{}
	fwSecOpPool.Put(op)
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
	hostGroupPool *pool.Pool[hostGroup]
	hostOpPool    *pool.Pool[hostOp]
)

func (g *hostGroup) release() {
	g.b, g.r = nil, nodeRead{}
	hostGroupPool.Put(g)
}

func (op *hostOp) release() {
	op.g = nil
	hostOpPool.Put(op)
}

// batchPool recycles batchState across batches and runs; newBatch
// resizes the per-hop slices and release clears every reference.
var batchPool = pool.New(func() *batchState { return &batchState{} })

func init() {
	pageOpPool = pool.New(func() *pageOp {
		op := &pageOp{}
		op.fnSenseStart = op.onSenseStart
		op.fnSenseDone = op.onSenseDone
		op.fnXferDone = op.onXferDone
		return op
	})
	execOpPool = pool.New(func() *execOp {
		op := &execOp{}
		op.fnSenseStart = op.onSenseStart
		op.fnSenseDone = op.onSenseDone
		op.fnXferDone = op.onXferDone
		return op
	})
	dieOpPool = pool.New(func() *dieOp {
		op := &dieOp{}
		op.fnFwDone = op.onFwDone
		op.fnIssued = op.onIssued
		op.fnExecDone = op.onExecDone
		op.fnDramDone = op.onDramDone
		op.fnParsed = op.onParsed
		return op
	})
	rtrOpPool = pool.New(func() *rtrOp {
		op := &rtrOp{}
		op.fnExecDone = op.onExecDone
		return op
	})
	rapGroupPool = pool.New(func() *rapGroup { return &rapGroup{} })
	rapOpPool = pool.New(func() *rapOp {
		op := &rapOp{}
		op.fnStart = op.onStart
		op.fnIssued = op.onIssued
		op.fnPageDone = op.onPageDone
		op.fnDramDone = op.onDramDone
		op.fnPcieDone = op.onPcieDone
		return op
	})
	fwReadOpPool = pool.New(func() *fwReadOp {
		op := &fwReadOp{}
		op.fnPagesDone = op.onPagesDone
		op.fnSampled = op.onSampled
		return op
	})
	fwSecOpPool = pool.New(func() *fwSecOp {
		op := &fwSecOp{}
		op.fnPagesDone = op.onPagesDone
		op.fnParsed = op.onParsed
		return op
	})
	hostGroupPool = pool.New(func() *hostGroup {
		g := &hostGroup{}
		g.fnSampled = g.onSampled
		return g
	})
	hostOpPool = pool.New(func() *hostOp {
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
}

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
