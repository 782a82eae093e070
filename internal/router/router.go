// Package router models the channel-level command router of Section V-B
// (Figure 12): per-die dispatch queues fed through a crossbar, a
// round-robin command issuer per channel, and a data-stream parser that
// extracts new sampling commands from completed results — all in
// hardware, with no embedded-core involvement. This is the component
// that turns BG-DGSP into BG-2.
package router

import (
	"fmt"

	"beacongnn/internal/config"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/flash"
	"beacongnn/internal/pool"
	"beacongnn/internal/sampler"
	"beacongnn/internal/sim"
)

// Stats counts router activity.
type Stats struct {
	Routed     uint64 // commands through the crossbar
	CrossHops  uint64 // commands whose source ≠ destination channel
	ParsedCmds uint64 // commands extracted by the data-stream parser
	MaxQueue   int    // deepest dispatch queue observed
}

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

	// transit holds commands crossing the crossbar. Every crossing takes
	// crossbarLat and the kernel breaks time ties in scheduling order,
	// so commands leave in the order they entered: one FIFO and one
	// bound callback (fnArrive) carry them all.
	transit  fifo
	fnArrive func()

	// dispatch[die] queues commands waiting for that die; the per-die
	// queue + flash.Backend's die server model the paper's per-die
	// dispatch queues polled round-robin by the channel's issuer.
	dispatch []fifo
	inFlight []int // routed commands currently executing on the die
	planes   int   // per-die concurrency (one command per plane)
	rrNext   []int // per-channel round-robin pointer over its dies

	stats Stats

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

func (q *fifo) pop() sampler.Command {
	c := q.cmds[q.head]
	q.head++
	switch {
	case q.head == len(q.cmds):
		q.cmds, q.head = q.cmds[:0], 0
	case q.head > 32 && q.head > len(q.cmds)/2:
		// Compact a mostly consumed prefix so a persistent backlog
		// cannot grow the array without bound.
		n := copy(q.cmds, q.cmds[q.head:])
		q.cmds, q.head = q.cmds[:n], 0
	}
	return c
}

// New returns a router over the backend. Crossbar and parse latencies
// default to 50 ns each when zero.
func New(k *sim.Kernel, backend *flash.Backend, crossbarLat, parseLat sim.Time) *Router {
	cfg := backend.Config()
	if crossbarLat == 0 {
		crossbarLat = 50 * sim.Nanosecond
	}
	if parseLat == 0 {
		parseLat = 50 * sim.Nanosecond
	}
	planes := cfg.PlanesPerDie
	if planes < 1 {
		planes = 1
	}
	r := &Router{
		k: k, backend: backend, cfg: cfg,
		crossbarLat: crossbarLat, parseLat: parseLat,
		sectionBits: directgraph.Layout{PageSize: cfg.PageSize}.SectionBits(),
		dispatch:    make([]fifo, cfg.TotalDies()),
		inFlight:    make([]int, cfg.TotalDies()),
		planes:      planes,
		rrNext:      make([]int, cfg.Channels),
	}
	r.fnArrive = r.arrive
	return r
}

// Stats returns a copy of the activity counters.
func (r *Router) Stats() Stats { return r.stats }

func (r *Router) pageOf(cmd sampler.Command) uint32 {
	// Section addresses embed the page number in their high bits; the
	// hardware shifter is fixed by the page size (Section IV-A).
	return uint32(cmd.Addr) >> r.sectionBits
}

// cmdOp carries one issued command through die execution and parsing.
// Its continuations are bound once when the pool constructs it, so
// issuing a command allocates nothing in steady state; the op returns
// to the pool after its follow-up commands have been forwarded.
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

// cmdOpPool is wired in init: the constructor binds onParsed, which
// puts ops back into the pool — an initialization cycle for a
// package-level initializer.
var cmdOpPool *pool.Pool[cmdOp]

func init() {
	cmdOpPool = pool.New(func() *cmdOp {
		op := &cmdOp{}
		op.fnIssued = op.onIssued
		op.fnRelease = op.release
		op.fnDone = op.onDone
		op.fnParsed = op.onParsed
		return op
	})
}

// Route injects a command into the crossbar from the given source
// channel (−1 for the initial injection from the frontend).
func (r *Router) Route(srcChannel int, cmd sampler.Command) {
	r.stats.Routed++
	if r.OnRouted != nil {
		r.OnRouted()
	}
	dst := r.backend.Geometry().Channel(r.pageOf(cmd))
	if srcChannel >= 0 && srcChannel != dst {
		r.stats.CrossHops++
	}
	r.transit.push(cmd)
	r.k.After(r.crossbarLat, r.fnArrive)
}

// arrive lands the oldest crossbar command in its die's dispatch queue.
func (r *Router) arrive() {
	cmd := r.transit.pop()
	// Section addresses embed the physical page; geometry maps it.
	page := r.pageOf(cmd)
	q := &r.dispatch[r.backend.Geometry().GlobalDie(page)]
	q.push(cmd)
	if n := q.len(); n > r.stats.MaxQueue {
		r.stats.MaxQueue = n
	}
	r.pump(r.backend.Geometry().Channel(page))
}

// pump is the channel's round-robin command issuer: it repeatedly scans
// the channel's dies from the last issue point, starting every queued
// command whose die is idle.
func (r *Router) pump(channel int) {
	d := r.cfg.DiesPerChannel
	base := channel * d
	for issued := true; issued; {
		issued = false
		for i := 0; i < d; i++ {
			idx := (r.rrNext[channel] + i) % d
			die := base + idx
			if r.inFlight[die] >= r.planes || r.dispatch[die].len() == 0 {
				continue
			}
			op := cmdOpPool.Get()
			op.r, op.cmd, op.channel, op.die, op.released = r, r.dispatch[die].pop(), channel, die, false
			r.inFlight[die]++
			r.rrNext[channel] = (idx + 1) % d
			// Issue: command cycles on the channel, then execution.
			r.backend.IssueCommand(r.pageOf(op.cmd), op.fnIssued)
			issued = true
			break
		}
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
		r.stats.ParsedCmds++
		r.Route(op.channel, nc)
	}
	r.pump(op.channel)
	op.r, op.next = nil, op.next[:0]
	cmdOpPool.Put(op)
}

// QueuedCommands returns the total commands waiting in dispatch queues.
func (r *Router) QueuedCommands() int {
	n := 0
	for i := range r.dispatch {
		n += r.dispatch[i].len()
	}
	return n
}

// Validate cross-checks router geometry against the backend.
func (r *Router) Validate() error {
	if r.Exec == nil {
		return fmt.Errorf("router: Exec callback not set")
	}
	return nil
}
