// Package router models the channel-level command router of Section V-B
// (Figure 12): per-die dispatch queues fed through a crossbar, a
// round-robin command issuer per channel, and a data-stream parser that
// extracts new sampling commands from completed results — all in
// hardware, with no embedded-core involvement. This is the component
// that turns BG-DGSP into BG-2.
package router

import (
	"math/bits"

	"beacongnn/internal/config"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/flash"
	"beacongnn/internal/pool"
	"beacongnn/internal/sampler"
	"beacongnn/internal/sim"
)

// Router forwards sampling commands between channels. Execution of a
// command at a die is delegated to the Exec callback, so the router
// stays independent of what the die does with it.
type Router struct {
	k       *sim.Kernel
	backend *flash.Backend
	cfg     config.Flash

	crossbarLat sim.Time
	parseLat    sim.Time
	sectionBits uint

	// q holds the router's queues (see fifos), recycled across runs.
	q        *fifos
	qs       pool.List[fifos]
	fnArrive func() // lands the oldest crossbar command

	inFlight []int // routed commands currently executing on the die
	planes   int   // per-die concurrency (one command per plane)
	rrNext   []int // per-channel round-robin pointer over its dies

	// ready is a per-channel bitset of the dies the issuer may start a
	// command on: a die's bit is set iff it has a free plane and a
	// non-empty dispatch queue (see markReady). Each channel owns
	// readyWords consecutive words.
	ready      []uint64
	readyWords int

	ops pool.List[cmdOp]

	// Exec runs a command on its die. The callee must call release once
	// the die's sense completes (the cache register frees the array, so
	// the next command can start sensing while this result transfers),
	// and done with the result's follow-up commands when the transfer
	// finishes. The router copies next before done returns, so the
	// callee may reuse that slice afterwards.
	Exec func(cmd sampler.Command, release func(), done func(next []sampler.Command))

	// OnRouted, when set, receives an energy event per routed command.
	OnRouted func()
}

// fifo is a head-indexed command queue (like sim.Server's): popping
// advances head instead of reslicing, so the backing array is reused
// once the queue drains.
type fifo struct {
	cmds []sampler.Command
	head int
}

func (q *fifo) len() int { return len(q.cmds) - q.head }

func (q *fifo) push(c sampler.Command) { q.cmds = append(q.cmds, c) }

func (q *fifo) reset() { q.cmds, q.head = q.cmds[:0], 0 }

func (q *fifo) pop() sampler.Command {
	c := q.cmds[q.head]
	q.head++
	switch {
	case q.head == len(q.cmds):
		q.reset()
	case q.head > 32 && q.head > len(q.cmds)/2:
		// Compact a mostly consumed prefix so a persistent backlog
		// cannot grow the array without bound.
		n := copy(q.cmds, q.cmds[q.head:])
		q.cmds, q.head = q.cmds[:n], 0
	}
	return c
}

// fifos is a router's queue storage. A router takes a set off
// fifoShelf in New and Release hands it back drained, so a warm
// router's queues start with the arrays the runs before it grew.
// Commands hold no references, so an idle set pins nothing.
type fifos struct {
	// transit holds commands crossing the crossbar. Every crossing
	// takes crossbarLat and the kernel breaks time ties in scheduling
	// order, so commands leave in the order they entered: one FIFO and
	// one bound callback (fnArrive) carry them all.
	transit fifo
	// dispatch[die] queues commands waiting for that die; the per-die
	// queue + flash.Backend's die server model the paper's per-die
	// dispatch queues polled round-robin by the channel's issuer.
	dispatch []fifo
}

var fifoShelf = pool.NewShelf(func() *fifos { return &fifos{} })

// New returns a router over the backend with the given crossbar hop and
// stream-parse latencies.
func New(k *sim.Kernel, backend *flash.Backend, crossbarLat, parseLat sim.Time) *Router {
	cfg := backend.Config()
	words := (cfg.DiesPerChannel + 63) / 64
	r := &Router{
		k: k, backend: backend, cfg: cfg,
		crossbarLat: crossbarLat, parseLat: parseLat,
		sectionBits: directgraph.Layout{PageSize: cfg.PageSize}.SectionBits(),
		inFlight:    make([]int, cfg.TotalDies()),
		planes:      cfg.PlanesPerDie,
		rrNext:      make([]int, cfg.Channels),
		ready:       make([]uint64, cfg.Channels*words),
		readyWords:  words,
		ops:         cmdOpShelf.List(),
		qs:          fifoShelf.List(),
	}
	r.q = r.qs.Get()
	// Grow through the set's full capacity so the FIFOs past its last
	// length keep their arrays too.
	if n := cfg.TotalDies(); cap(r.q.dispatch) < n {
		r.q.dispatch = append(r.q.dispatch[:cap(r.q.dispatch)], make([]fifo, n-cap(r.q.dispatch))...)
	}
	r.q.dispatch = r.q.dispatch[:cfg.TotalDies()]
	// A run that drained with commands still queued (a deadlock) handed
	// its set back as it stood; start every FIFO empty.
	r.q.transit.reset()
	for i := range r.q.dispatch {
		r.q.dispatch[i].reset()
	}
	r.fnArrive = r.arrive
	return r
}

func (r *Router) pageOf(cmd sampler.Command) uint32 {
	// Section addresses embed the page number in their high bits; the
	// hardware shifter is fixed by the page size (Section IV-A).
	return uint32(cmd.Addr) >> r.sectionBits
}

// cmdOp carries one issued command through die execution and parsing.
// Its continuations are bound once at construction, so issuing a
// command allocates nothing in steady state; the op returns to the
// router's free list after its follow-up commands have been forwarded.
type cmdOp struct {
	r        *Router
	cmd      sampler.Command
	channel  int
	die      int
	released bool
	next     []sampler.Command // follow-up commands, copied from Exec's done

	fnIssued  func()
	fnRelease func()
	fnDone    func([]sampler.Command)
	fnParsed  func()
}

// cmdOpShelf keeps the idle cmdOp lists between runs; each Router
// draws its own list from it (see Release).
var cmdOpShelf = pool.NewShelf(func() *cmdOp {
	op := &cmdOp{}
	op.fnIssued = op.onIssued
	op.fnRelease = op.release
	op.fnDone = op.onDone
	op.fnParsed = op.onParsed
	return op
})

// Release hands the router's recycled command state and queues back to
// the process for the next run. Call it once the kernel driving the
// router has returned; with events pending the router keeps its
// queues, because those events still reach them.
func (r *Router) Release() {
	r.ops.Release()
	if r.q != nil && r.k.Pending() == 0 {
		r.qs.Put(r.q)
		r.qs.Release()
		r.q = nil
	}
}

// Route injects a command into the crossbar.
func (r *Router) Route(cmd sampler.Command) {
	if r.OnRouted != nil {
		r.OnRouted()
	}
	r.q.transit.push(cmd)
	r.k.After(r.crossbarLat, r.fnArrive)
}

// arrive lands the oldest crossbar command in its die's dispatch queue.
func (r *Router) arrive() {
	cmd := r.q.transit.pop()
	// Section addresses embed the physical page; geometry maps it.
	page := r.pageOf(cmd)
	die := r.backend.Geometry().GlobalDie(page)
	r.q.dispatch[die].push(cmd)
	r.markReady(die)
	r.pump(r.backend.Geometry().Channel(page))
}

// markReady sets or clears the die's ready bit after its dispatch queue
// or in-flight count changed.
func (r *Router) markReady(die int) {
	d := r.cfg.DiesPerChannel
	idx := die % d
	w := &r.ready[die/d*r.readyWords+idx>>6]
	bit := uint64(1) << (idx & 63)
	if r.inFlight[die] < r.planes && r.q.dispatch[die].len() > 0 {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// pick returns the channel's next die to issue to, as an index within
// the channel: the first ready die at or after the round-robin pointer,
// wrapping around. It reports -1 when no die is ready.
func (r *Router) pick(channel int) int {
	words := r.ready[channel*r.readyWords : (channel+1)*r.readyWords]
	start := r.rrNext[channel]
	first := start >> 6
	if m := words[first] >> (start & 63); m != 0 {
		return start + bits.TrailingZeros64(m)
	}
	for i := first + 1; i < len(words); i++ {
		if words[i] != 0 {
			return i<<6 + bits.TrailingZeros64(words[i])
		}
	}
	// Wrap: the first word's bits at or after start are already known
	// to be clear, so any bit found here precedes start.
	for i := 0; i <= first; i++ {
		if words[i] != 0 {
			return i<<6 + bits.TrailingZeros64(words[i])
		}
	}
	return -1
}

// take dequeues the next command for the die at index idx of the
// channel, occupies one of its planes and advances the round-robin
// pointer past it.
func (r *Router) take(channel, idx int) (die int, cmd sampler.Command) {
	d := r.cfg.DiesPerChannel
	die = channel*d + idx
	cmd = r.q.dispatch[die].pop()
	r.inFlight[die]++
	r.markReady(die)
	r.rrNext[channel] = (idx + 1) % d
	return die, cmd
}

// pump is the channel's round-robin command issuer: it starts queued
// commands on idle dies, in round-robin order from the last issue
// point, until no die of the channel is ready.
func (r *Router) pump(channel int) {
	for idx := r.pick(channel); idx >= 0; idx = r.pick(channel) {
		op := r.ops.Get()
		op.r, op.channel, op.released = r, channel, false
		op.die, op.cmd = r.take(channel, idx)
		// Issue: command cycles on the channel, then execution.
		r.backend.IssueCommand(r.pageOf(op.cmd), op.fnIssued)
	}
}

func (op *cmdOp) onIssued() {
	op.r.Exec(op.cmd, op.fnRelease, op.fnDone)
}

// release frees the die's plane for the next queued command; it runs
// at most once per command, whichever of Exec's release or the parser
// gets there first.
func (op *cmdOp) release() {
	if op.released {
		return
	}
	op.released = true
	op.r.inFlight[op.die]--
	op.r.markReady(op.die)
	op.r.pump(op.channel)
}

// onDone is the data-stream parser's input: classify the result and
// forward its new commands through the crossbar after the parse delay.
func (op *cmdOp) onDone(next []sampler.Command) {
	op.next = append(op.next[:0], next...)
	op.r.k.After(op.r.parseLat, op.fnParsed)
}

func (op *cmdOp) onParsed() {
	r := op.r
	op.release()
	for _, nc := range op.next {
		r.Route(nc)
	}
	r.pump(op.channel)
	op.r, op.next = nil, op.next[:0]
	r.ops.Put(op)
}
