// Package flash models the SSD's flash backend: channels, dies, and
// their timing (Section II-B). Dies and channel buses are contended
// resources; a page read occupies its die for the sense latency (3 µs
// ULL / 20 µs traditional) and the channel for the transfer time of
// whatever is moved off the die — a full page on conventional paths, or
// only sampled results when die-level samplers are present (Section V).
//
// The package also provides the Figure 7a microbenchmark showing why
// page-granular channel transfer throttles ULL flash.
package flash

import (
	"fmt"

	"beacongnn/internal/config"
	"beacongnn/internal/fault"
	"beacongnn/internal/pool"
	"beacongnn/internal/sim"
)

// Geometry maps physical page numbers onto channels and dies.
// Consecutive pages stripe across channels first, then dies within a
// channel, maximizing parallelism for sequential allocations.
type Geometry struct {
	cfg config.Flash
}

// NewGeometry returns the mapping for the given flash config.
func NewGeometry(cfg config.Flash) Geometry { return Geometry{cfg: cfg} }

// Channel returns the channel a page lives on.
func (g Geometry) Channel(page uint32) int { return int(page) % g.cfg.Channels }

// DieInChannel returns the die index within the page's channel.
func (g Geometry) DieInChannel(page uint32) int {
	return (int(page) / g.cfg.Channels) % g.cfg.DiesPerChannel
}

// GlobalDie returns the page's die index in [0, TotalDies).
func (g Geometry) GlobalDie(page uint32) int {
	return g.Channel(page)*g.cfg.DiesPerChannel + g.DieInChannel(page)
}

// BlockOf returns the page's block index within its die.
func (g Geometry) BlockOf(page uint32) int {
	perDie := int(page) / (g.cfg.Channels * g.cfg.DiesPerChannel)
	return perDie / g.cfg.PagesPerBlock
}

// Backend is the simulated flash array. Each die exposes PlanesPerDie
// parallel sense units (Fig. 10: a two-plane die senses both planes
// concurrently) behind one shared sampler/control unit — sensing
// parallelizes within a die, on-die sampling does not. Each channel bus
// is a width-1 server.
type Backend struct {
	k        *sim.Kernel
	cfg      config.Flash
	geom     Geometry
	dies     []*sim.Server // width = PlanesPerDie: the plane sense units
	samplers []*sim.Server // width = 1: the shared per-die control logic
	channels []*sim.Server
	DieUtil  *sim.Utilization
	ChanUtil *sim.Utilization

	reads    uint64
	busBytes uint64

	// OnRead and OnTransfer, when set, receive energy-accounting events.
	OnRead     func()
	OnTransfer func(bytes int)

	// FaultInjector, when set, classifies every sense (clean / retry /
	// soft-decode / uncorrectable) and reroutes dead channels. Nil (the
	// default) keeps the backend's event sequence bit-for-bit identical
	// to a build without the fault model.
	FaultInjector *fault.Injector
	// OnRetrySense receives the extra Vref-shift sense count of each
	// non-clean read, for energy accounting.
	OnRetrySense func(senses int)

	tracer sim.Tracer

	// senses is the free list of sense state, owned by this backend or
	// shared with the other backends on its kernel (ShareFreeLists).
	senses *pool.List[senseOp]
}

// New builds a backend on the kernel. timelinePoints bounds the
// utilization timelines kept for Figure 15 (0 disables them).
func New(k *sim.Kernel, cfg config.Flash, timelinePoints int) (*Backend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Backend{
		k: k, cfg: cfg, geom: NewGeometry(cfg),
		DieUtil:  sim.NewUtilization(timelinePoints),
		ChanUtil: sim.NewUtilization(timelinePoints),
	}
	senses := senseShelf.List()
	b.senses = &senses
	b.dies = make([]*sim.Server, cfg.TotalDies())
	b.samplers = make([]*sim.Server, cfg.TotalDies())
	for i := range b.dies {
		b.dies[i] = sim.NewServer(k, cfg.PlanesPerDie)
		b.dies[i].SetUtilization(b.DieUtil)
		b.samplers[i] = sim.NewServer(k, 1)
	}
	b.channels = make([]*sim.Server, cfg.Channels)
	for i := range b.channels {
		b.channels[i] = sim.NewServer(k, 1)
		b.channels[i].SetUtilization(b.ChanUtil)
	}
	return b, nil
}

// SetTracer attaches a request tracer to every die, per-die sampler, and
// channel bus; spans are attributed as flash.die / flash.sampler /
// flash.channel with the resource index as the lane. Pass nil to detach.
func (b *Backend) SetTracer(t sim.Tracer) {
	b.tracer = t
	for i, d := range b.dies {
		d.SetTracer(t, "flash.die", i)
	}
	for i, s := range b.samplers {
		s.SetTracer(t, "flash.sampler", i)
	}
	for i, c := range b.channels {
		c.SetTracer(t, "flash.channel", i)
	}
}

// SetSchedulers attaches a fresh queueing policy from mk to every die,
// per-die sampler, and channel bus (each server needs its own instance —
// policies hold per-queue state). Call before any traffic is submitted;
// nil-returning constructors restore the FIFO default. See sim/sched.go.
func (b *Backend) SetSchedulers(mk func() sim.Scheduler) {
	for _, d := range b.dies {
		d.SetScheduler(mk())
	}
	for _, s := range b.samplers {
		s.SetScheduler(mk())
	}
	for _, c := range b.channels {
		c.SetScheduler(mk())
	}
}

// Occupancy reports in-service and queued request counts summed over all
// dies, per-die samplers, and channel buses. Both are zero once a run
// has drained; the invariant checker polls this at completion.
func (b *Backend) Occupancy() (busy, queued int) {
	for _, s := range b.dies {
		busy += s.Busy()
		queued += s.QueueLen()
	}
	for _, s := range b.samplers {
		busy += s.Busy()
		queued += s.QueueLen()
	}
	for _, s := range b.channels {
		busy += s.Busy()
		queued += s.QueueLen()
	}
	return busy, queued
}

// Geometry returns the page-to-die mapping.
func (b *Backend) Geometry() Geometry { return b.geom }

// Config returns the flash configuration.
func (b *Backend) Config() config.Flash { return b.cfg }

// Reads returns the number of page senses performed.
func (b *Backend) Reads() uint64 { return b.reads }

// BusBytes returns total bytes moved over all channel buses.
func (b *Backend) BusBytes() uint64 { return b.busBytes }

// ReadPage senses the page on one of its die's planes. dieExtra adds
// on-die processing time (the die-level sampler), which runs on the
// die's single shared sampler after the sense — two planes can sense in
// parallel, but their sampler invocations serialize (Fig. 10).
// senseStart fires when a plane begins the sense (for wait-time
// accounting), done when the result is ready in the data register.
// Neither transfers anything over the channel; use Transfer for that.
func (b *Backend) ReadPage(page uint32, dieExtra sim.Time, senseStart func(sim.Time), done func()) {
	b.SensePage(page, dieExtra, 0, senseStart, func(fault.Outcome) {
		if done != nil {
			done()
		}
	})
}

// SensePage is ReadPage with the fault model exposed and an EDF
// completion target for the die (and, when dieExtra > 0, the sampler):
// done receives the sense's ECC outcome so callers can run the firmware
// recovery ladder. With no FaultInjector the outcome is always zero
// (Clean). Only a deadline-aware scheduler reads the deadline; 0 means
// none. Extra Vref-shift senses extend the die occupancy of this
// request; they are reported as a flash.retry span to the tracer.
func (b *Backend) SensePage(page uint32, dieExtra, deadline sim.Time, senseStart func(sim.Time), done func(fault.Outcome)) {
	die := b.geom.GlobalDie(page)
	b.reads++
	if b.OnRead != nil {
		b.OnRead()
	}
	var out fault.Outcome
	service := b.cfg.ReadLatency
	if b.FaultInjector != nil {
		out = b.FaultInjector.ClassifyAt(die, b.geom.BlockOf(page), b.k.Now())
		service += out.ExtraDieTime
		if out.RetrySenses > 0 && b.OnRetrySense != nil {
			b.OnRetrySense(out.RetrySenses)
		}
	}
	op := b.senses.Get()
	op.b, op.die, op.dieExtra, op.out = b, die, dieExtra, out
	op.deadline = deadline
	op.done = done
	b.dies[die].SubmitFull(service, deadline, senseStart, op.fnDone)
}

// senseOp is the pooled per-sense state machine: it replaces the closure
// ladder SensePage allocated per request (service start/done plus the
// sampler hand-off) with continuations bound once per pooled object.
type senseOp struct {
	b        *Backend
	die      int
	dieExtra sim.Time
	deadline sim.Time
	out      fault.Outcome
	done     func(fault.Outcome)

	fnDone    func()
	fnSampler func()
}

// senseShelf keeps the idle senseOp lists between runs; each Backend
// draws its own list from it (see Release).
var senseShelf = pool.NewShelf(func() *senseOp {
	op := &senseOp{}
	op.fnDone = op.onDone
	op.fnSampler = op.onSampler
	return op
})

func (op *senseOp) release() {
	b := op.b
	op.b = nil
	op.done = nil
	b.senses.Put(op)
}

// Release hands the backend's recycled sense state back to the process
// for the next run. Call it once the kernel driving the backend has
// returned and no sense is in flight.
func (b *Backend) Release() { b.senses.Release() }

// ShareFreeLists makes b draw its sense state from other's free list.
// Backends driven by one kernel run on one goroutine, so they can share
// a list; one list sized by their combined peak is handed back whole,
// where per-backend lists would be dealt to different backends by the
// next run and fall short. Releasing either backend releases it.
func (b *Backend) ShareFreeLists(other *Backend) { b.senses = other.senses }

func (op *senseOp) onDone() {
	b := op.b
	if op.out.ExtraDieTime > 0 && b.tracer != nil {
		end := b.k.Now()
		b.tracer.ServerSpan("flash.retry", op.die, end-op.out.ExtraDieTime, end-op.out.ExtraDieTime, end)
	}
	if op.dieExtra <= 0 {
		done, out := op.done, op.out
		op.release()
		if done != nil {
			done(out)
		}
		return
	}
	if op.done == nil {
		b.samplers[op.die].SubmitFull(op.dieExtra, op.deadline, nil, nil)
		op.release()
		return
	}
	b.samplers[op.die].SubmitFull(op.dieExtra, op.deadline, nil, op.fnSampler)
}

func (op *senseOp) onSampler() {
	done, out := op.done, op.out
	op.release()
	done(out)
}

// Transfer moves n bytes over the page's channel bus (plus the fixed
// command overhead) and calls done when the bus releases the data. The
// deadline is the bus's EDF completion target (0 = none). A dead
// channel (an injected outage) reroutes deterministically to the next
// healthy bus, whose queue widens to absorb the displaced traffic.
func (b *Backend) Transfer(page uint32, n int, deadline sim.Time, done func()) {
	ch := b.geom.Channel(page)
	b.busBytes += uint64(n)
	if b.OnTransfer != nil {
		b.OnTransfer(n)
	}
	if b.FaultInjector != nil {
		ch = b.FaultInjector.RouteChannel(ch)
	}
	b.channels[ch].SubmitFull(b.cfg.TransferTime(n), deadline, nil, done)
}

// IssueCommand occupies the page's channel bus for the command/address
// cycles of one flash command (how sampling commands reach dies).
func (b *Backend) IssueCommand(page uint32, done func()) {
	ch := b.geom.Channel(page)
	if b.FaultInjector != nil {
		ch = b.FaultInjector.RouteChannel(ch)
	}
	b.channels[ch].Submit(b.cfg.CmdOverhead, done)
}

// ProgramPage writes a page: channel transfer of the full page followed
// by the program latency on the die.
func (b *Backend) ProgramPage(page uint32, done func()) {
	die := b.geom.GlobalDie(page)
	b.Transfer(page, b.cfg.PageSize, 0, func() {
		b.dies[die].Submit(b.cfg.ProgramLatency, done)
	})
}

// ContentionResult is the outcome of the Figure 7a microbenchmark.
type ContentionResult struct {
	ActiveDies     int
	Throughput     float64  // page reads per second
	AvgLatency     sim.Time // mean read completion latency
	ChannelBusFrac float64  // channel bus utilization
}

// RunChannelContention reproduces Figure 7a: n dies on one channel read
// full pages back-to-back for the given simulated duration. With ULL
// sense latency far below the page transfer time, adding dies quickly
// saturates the bus: throughput gains flatten while per-read latency
// balloons.
func RunChannelContention(cfg config.Flash, activeDies int, duration sim.Time) (ContentionResult, error) {
	if activeDies < 1 || activeDies > cfg.DiesPerChannel {
		return ContentionResult{}, fmt.Errorf("flash: active dies %d outside [1,%d]", activeDies, cfg.DiesPerChannel)
	}
	k := sim.New()
	b, err := New(k, cfg, 0)
	if err != nil {
		return ContentionResult{}, err
	}
	var completed uint64
	var totalLat sim.Time
	// Use one page per die on channel 0; page p maps to channel p%C, so
	// channel-0 pages are multiples of C with die index (p/C)%D.
	var issue func(die int)
	issue = func(die int) {
		page := uint32(die * cfg.Channels)
		start := k.Now()
		b.ReadPage(page, 0, nil, func() {
			b.Transfer(page, cfg.PageSize, 0, func() {
				completed++
				totalLat += k.Now() - start
				if k.Now() < duration {
					issue(die)
				}
			})
		})
	}
	for d := 0; d < activeDies; d++ {
		issue(d)
	}
	k.Run()
	end := k.Now()
	res := ContentionResult{ActiveDies: activeDies}
	if completed > 0 {
		res.Throughput = float64(completed) / end.Seconds()
		res.AvgLatency = totalLat / sim.Time(completed)
	}
	res.ChannelBusFrac = b.ChanUtil.Mean(end)
	b.Release()
	k.ReleaseServers()
	return res, nil
}
