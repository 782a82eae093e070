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
// captured into fields). The page platforms' node reads run on readOp
// and readPageOp, the die platforms' commands on execOp and (under
// firmware scheduling) dieOp; all share senseCtx and batchState. Every
// System owns one free list per type (lists), drawn from the type's
// shelf at first use and handed back when Run returns. Reset
// discipline: release() clears every reference field before Put, and
// callers that invoke a final callback copy it to a local, release,
// then call — the object must never be touched after Put.
// pool.Disable turns all of this into fresh allocation for the
// determinism tests.

// lists are a System's free lists, one per pooled type.
type lists struct {
	senseCtx   pool.List[senseCtx]
	readOp     pool.List[readOp]
	readPageOp pool.List[readPageOp]
	execOp     pool.List[execOp]
	dieOp      pool.List[dieOp]
	batch      pool.List[batchState]
	result     pool.List[sampler.Result]
	trng       pool.List[trngSlab]
}

func newLists() lists {
	return lists{
		senseCtx: senseCtxShelf.List(),
		readOp:   readOpShelf.List(), readPageOp: readPageOpShelf.List(),
		execOp: execOpShelf.List(), dieOp: dieOpShelf.List(),
		batch: batchShelf.List(), result: resultShelf.List(),
		trng: trngShelf.List(),
	}
}

// release hands every list back to its shelf for the next run.
func (l *lists) release() {
	l.senseCtx.Release()
	l.readOp.Release()
	l.readPageOp.Release()
	l.execOp.Release()
	l.dieOp.Release()
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

// readOp carries one page-platform node read (readPages) across its
// page fan-out and on through the step that follows the last page:
// host or firmware sampling, or a BG-DG secondary section's parse.
type readOp struct {
	b         *batchState
	r         nodeRead
	remaining int
	host      bool
	fwCost    sim.Time
	hostBytes int

	fnSampled func()
	fnParsed  func()
}

var readOpShelf = pool.NewShelf(func() *readOp {
	op := &readOp{}
	op.fnSampled = op.onSampled
	op.fnParsed = op.onParsed
	return op
})

func (op *readOp) release() {
	s := op.b.sys
	op.b, op.r = nil, nodeRead{}
	s.lists.readOp.Put(op)
}

// readPageOp carries one page of a readOp through the optional host
// I/O stack and doorbell, firmware scheduling → issue → sense →
// channel transfer → DRAM landing, with lifetime accounting, and the
// optional DRAM read + PCIe continuation to the host.
type readPageOp struct {
	op   *readOp
	page uint32

	senseStart, senseEnd sim.Time

	fnHostDone   func()
	fnDoorbell   func()
	fnFwDone     func()
	fnIssued     func()
	fnSenseStart func(sim.Time)
	fnSenseDone  func(uint32)
	fnXferDone   func()
	fnLanded     func()
	fnDramDone   func()
	fnPageDone   func()
}

var readPageOpShelf = pool.NewShelf(func() *readPageOp {
	pg := &readPageOp{}
	pg.fnHostDone = pg.onHostDone
	pg.fnDoorbell = pg.submit
	pg.fnFwDone = pg.onFwDone
	pg.fnIssued = pg.onIssued
	pg.fnSenseStart = pg.onSenseStart
	pg.fnSenseDone = pg.onSenseDone
	pg.fnXferDone = pg.onXferDone
	pg.fnLanded = pg.onLanded
	pg.fnDramDone = pg.onDramDone
	pg.fnPageDone = pg.pageDone
	return pg
})

func (pg *readPageOp) release() {
	s := pg.op.b.sys
	pg.op = nil
	s.lists.readPageOp.Put(pg)
}

// execOp carries one execDie (die platforms) through
// sense+sample → channel transfer, with lifetime accounting, and then
// hands the result to its dieOp (fw) or, for a routed BG-2 command,
// finishes it: onSense and routed are the router's release and parser.
// It stays apart from dieOp, because a command waits in the firmware
// queue far longer than it senses: a cold pass holds many more dieOps
// than execOps, and a merged type would bind the sense leg's
// continuations on every dieOp.
type execOp struct {
	b       *batchState
	cmd     sampler.Command
	fw      *dieOp
	onSense func()
	routed  func([]sampler.Command)
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
	op.b, op.fw, op.onSense, op.routed, op.res = nil, nil, nil, nil, nil
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
	fnDramDone func()
	fnParsed   func()
}

var dieOpShelf = pool.NewShelf(func() *dieOp {
	op := &dieOp{}
	op.fnFwDone = op.onFwDone
	op.fnIssued = op.onIssued
	op.fnDramDone = op.onDramDone
	op.fnParsed = op.onParsed
	return op
})

func (op *dieOp) release() {
	s := op.b.sys
	op.b, op.res = nil, nil
	s.lists.dieOp.Put(op)
}

// resultShelf recycles die-sampler Results: execDie fills one through
// sampler.ExecuteInto and the consumer (dieOp.onParsed, execOp.onXferDone)
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
