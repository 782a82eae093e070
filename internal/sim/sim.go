// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Components schedule callbacks at absolute or relative simulated times;
// Run drains the queue in (time, insertion-order) order, so simulations
// are fully deterministic for a given seed and schedule.
//
// The package also provides the queueing building blocks shared by every
// device model in the repository: Server (an N-way FIFO service center)
// and Pipe (a bandwidth-limited byte mover), plus utilization trackers
// used to regenerate the paper's resource-utilization figures.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"beacongnn/internal/pool"
)

// Time is a point in simulated time, in nanoseconds.
type Time int64

// Common durations, in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Duration converts a standard library duration to simulated time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns t expressed in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds as a float.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	// Pick the unit by magnitude so negative durations format like their
	// positive counterparts (-5µs is "-5.000µs", not "-5000ns").
	m := t
	sign := ""
	if m < 0 {
		m = -m
		sign = "-"
	}
	switch {
	case m >= Second:
		return fmt.Sprintf("%s%.3fs", sign, m.Seconds())
	case m >= Millisecond:
		return fmt.Sprintf("%s%.3fms", sign, float64(m)/float64(Millisecond))
	case m >= Microsecond:
		return fmt.Sprintf("%s%.3fµs", sign, m.Micros())
	default:
		return fmt.Sprintf("%s%dns", sign, int64(m))
	}
}

// event is a scheduled callback. The common case carries a closure in
// fn; Server completions instead carry the (srv, slot) pair of the
// in-service request, so the hot request path schedules zero closures —
// step dispatches srv.complete(slot) directly. next links a wheel slot's
// events, or the free list, through the queue's slab (see queue).
type event struct {
	at   Time
	seq  uint64 // tiebreaker: FIFO among equal times
	fn   func()
	srv  *Server
	slot int32
	next int32
}

// ref is an overflow-heap entry: the (time, seq) key of an event and
// its slab index. It holds no pointers, so heap moves need no GC write
// barriers.
type ref struct {
	at  Time
	seq uint64
	i   int32
}

// before orders refs by (time, insertion sequence).
func (r *ref) before(o *ref) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	return r.seq < o.seq
}

// eventQueue is a slice-backed 4-ary min-heap of refs: the kernel's
// overflow for events due at or past the wheel's horizon (see queue).
// A concrete heap avoids container/heap's per-operation interface
// boxing, and the 4-ary shape halves the tree depth.
type eventQueue struct {
	ev []ref
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(r ref) {
	q.ev = append(q.ev, r)
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.ev[i].before(&q.ev[p]) {
			break
		}
		q.ev[i], q.ev[p] = q.ev[p], q.ev[i]
		i = p
	}
}

func (q *eventQueue) pop() ref {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev = q.ev[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.ev)
	for {
		best := i
		first := 4*i + 1
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if q.ev[c].before(&q.ev[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		q.ev[i], q.ev[best] = q.ev[best], q.ev[i]
		i = best
	}
}

// The timing wheel. Simulated time is integer nanoseconds and nearly
// every event is due a few µs past now, so the queue keeps one slot per
// nanosecond of [now, now+wheelSize): an event due at t goes to slot
// t & wheelMask. Every queued wheel event lies in that window (now only
// advances to the earliest queued time), so one slot holds exactly one
// timestamp, and seq only grows, so each slot's FIFO is already in
// (time, seq) order. Events due at or past the horizon go to the
// overflow heap; dispatch takes the earlier of the two tops on
// (time, seq), so an overflow event that time has brought inside the
// window still runs before later-scheduled wheel events at its time.
// 2^15 ns is the smallest horizon that holds the traditional platform's
// 20 µs flash reads (DESIGN §10 has the census).
const (
	wheelSize = 1 << 15
	wheelMask = wheelSize - 1
)

// wheelSlot is one timestamp's FIFO, threaded through the slab by
// event.next; head and tail are slab indexes, and head 0 (the slab's
// sentinel) means the slot is empty.
type wheelSlot struct{ head, tail int32 }

// queue is the kernel's pending-event store: every queued event lives
// in slab, ordered by the wheel or the overflow heap. A kernel takes a
// queue off queueShelf at its first push and Run hands it back drained
// (heads and bitmap zero, slab at its sentinel), so a warm run
// allocates no queue storage. The slices come first so the garbage
// collector's scan of a queue stops before the pointer-free arrays.
type queue struct {
	// slab[0] is a sentinel so index 0 can mean "none"; free heads a
	// free list linked through event.next.
	slab     []event
	overflow eventQueue
	free     int32
	n        int                    // queued events, wheel and overflow
	bits     [wheelSize / 64]uint64 // non-empty slots
	slots    [wheelSize]wheelSlot
}

var queueShelf = pool.NewShelf(func() *queue { return &queue{slab: make([]event, 1, 64)} })

// push queues a callback due at time at (never before now), numbering
// it in scheduling order. A kernel holding no queue takes one off the
// shelf.
func (k *Kernel) push(at Time, fn func(), srv *Server, slot int32) {
	q := k.q
	if q == nil {
		k.qs = queueShelf.List()
		q = k.qs.Get()
		k.q = q
	}
	k.seq++
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	// Field by field: a whole-struct copy from the stack stalls on store
	// forwarding.
	e := &q.slab[i]
	e.at, e.seq, e.fn, e.srv, e.slot, e.next = at, k.seq, fn, srv, slot, 0
	q.n++
	if at-k.now >= wheelSize {
		q.overflow.push(ref{at: at, seq: k.seq, i: i})
		return
	}
	s := int(at) & wheelMask
	sl := &q.slots[s]
	if sl.head != 0 {
		q.slab[sl.tail].next = i
		sl.tail = i
		return
	}
	sl.head, sl.tail = i, i
	q.bits[s>>6] |= 1 << (s & 63)
}

// wheelFirst returns the slab index of the earliest wheel event, or 0:
// the head of the first non-empty slot at or after now's, wrapping.
func (q *queue) wheelFirst(now Time) int32 {
	if q.n == q.overflow.len() {
		return 0
	}
	s := int(now) & wheelMask
	w := s >> 6
	if b := q.bits[w] >> (s & 63); b != 0 {
		return q.slots[s+bits.TrailingZeros64(b)].head
	}
	// Ending on word w again picks up the slots that wrapped below s.
	for n := 1; n <= len(q.bits); n++ {
		j := (w + n) & (len(q.bits) - 1)
		if b := q.bits[j]; b != 0 {
			return q.slots[j<<6+bits.TrailingZeros64(b)].head
		}
	}
	panic("sim: wheel count and bitmap disagree")
}

// first returns the slab index of the earliest queued event and whether
// it is the overflow heap's top. The queue must be non-empty.
func (q *queue) first(now Time) (int32, bool) {
	i := q.wheelFirst(now)
	if q.overflow.len() == 0 {
		return i, false
	}
	top := &q.overflow.ev[0]
	if i == 0 || top.before(&ref{at: q.slab[i].at, seq: q.slab[i].seq}) {
		return top.i, true
	}
	return i, false
}

// peek returns the earliest queued event's time. The queue must be
// non-empty.
func (q *queue) peek(now Time) Time {
	i, _ := q.first(now)
	return q.slab[i].at
}

// pop removes the earliest queued event and returns its fields, field
// by field so the hot path copies no event struct. The queue must be
// non-empty.
func (q *queue) pop(now Time) (at Time, fn func(), srv *Server, slot int32) {
	i, overflow := q.first(now)
	e := &q.slab[i]
	at, fn, srv, slot = e.at, e.fn, e.srv, e.slot
	if overflow {
		q.overflow.pop()
	} else {
		s := int(at) & wheelMask
		if q.slots[s].head = e.next; e.next == 0 {
			q.bits[s>>6] &^= 1 << (s & 63)
		}
	}
	// Drop the callback references and recycle the slab entry; the last
	// pop rewinds the slab to its sentinel.
	e.fn, e.srv, e.next = nil, nil, q.free
	q.free = i
	if q.n--; q.n == 0 {
		q.slab, q.free = q.slab[:1], 0
	}
	return at, fn, srv, slot
}

// Kernel is the discrete-event engine. The zero value is ready to use.
type Kernel struct {
	now      Time
	seq      uint64
	q        *queue // nil until the first push and after a drained Run
	qs       pool.List[queue]
	steps    uint64
	stopped  bool
	canceled bool
	probe    func(at Time)
	cancel   func() bool
	// servers is the set NewServer hands this kernel's service centers
	// out of (nil until the first NewServer and after ReleaseServers).
	servers *serverSet
	ss      pool.List[serverSet]
	// cancelEvery overrides cancelStride when non-zero (SetCancelStride).
	cancelEvery uint64
	// nextPoll is the step number of the next cancellation poll, the
	// first multiple of the stride at or after the step count it was
	// computed at, so the per-event check is one comparison.
	nextPoll uint64
}

// cancelStride is how many events run between cancellation polls. The
// hot loop stays branch-cheap (a nil check and one comparison per
// event) while a cancelled simulation still stops within microseconds
// of wall time.
const cancelStride = 1024

// New returns a fresh kernel with the clock at zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of events waiting in the queue.
func (k *Kernel) Pending() int {
	if k.q == nil {
		return 0
	}
	return k.q.n
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	k.push(t, fn, nil, 0)
}

// After schedules fn to run d nanoseconds from now. Negative delays panic.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	k.At(k.now+d, fn)
}

// afterServer schedules a Server completion d from now without a
// closure: the event carries the (server, slot) pair and step dispatches
// it directly. Service times are validated non-negative at Submit.
func (k *Kernel) afterServer(d Time, s *Server, slot int32) {
	k.push(k.now+d, nil, s, slot)
}

// SetProbe installs a per-event observer: it runs before each event's
// callback with the event's scheduled time. The invariant checker uses
// it to verify the clock never moves backwards. A nil probe (the
// default) costs a single pointer check per event and no allocations,
// keeping the hot loop identical to an unobserved kernel.
func (k *Kernel) SetProbe(p func(at Time)) { k.probe = p }

// Stop halts the event loop: Run and RunUntil return after the current
// event's callback. Queued events stay queued. Components use it to
// abort a simulation on an unrecoverable device error instead of
// panicking out of the event loop.
func (k *Kernel) Stop() { k.stopped = true }

// SetCancel installs an external-abandonment poll (typically a closure
// over ctx.Err). It is checked every cancelStride events (see
// SetCancelStride); when it returns true the loop stops exactly like
// Stop, and Canceled reports true so callers can tell abandonment from
// a normal early Stop. A nil poll (the default) adds one pointer check
// per event.
func (k *Kernel) SetCancel(poll func() bool) { k.cancel = poll }

// SetCancelStride overrides how many events run between cancellation
// polls (n <= 0 restores the cancelStride default). Fault-heavy
// schedules stretch per-event wall cost (recovery ladders, storms), so
// abandonment-sensitive callers — hedged duplicates, draining daemons —
// poll finer. Polling only observes: results are identical at any
// stride.
func (k *Kernel) SetCancelStride(n int) {
	k.nextPoll = 0 // recomputed under the new stride at the next poll
	if n <= 0 {
		k.cancelEvery = 0
		return
	}
	k.cancelEvery = uint64(n)
}

// Canceled reports whether the cancel poll stopped the loop.
func (k *Kernel) Canceled() bool { return k.canceled }

// pollCancel runs the cancel poll when the step count is a multiple of
// the stride. RunUntil may call it more than once at one step count
// (once per window), and each of those calls polls.
func (k *Kernel) pollCancel() bool {
	if k.cancel == nil || k.steps < k.nextPoll {
		return false
	}
	if k.steps > k.nextPoll {
		// The first call past the last poll step: find the next one.
		stride := k.cancelEvery
		if stride == 0 {
			stride = cancelStride
		}
		k.nextPoll = (k.steps + stride - 1) / stride * stride
		if k.steps != k.nextPoll {
			return false
		}
	}
	if k.cancel() {
		k.canceled = true
		k.stopped = true
		return true
	}
	return false
}

// Run executes events until the queue is empty, Stop is called, or the
// cancel poll fires. Returning drained, it hands the queue's storage
// back to the shelf for the next run.
func (k *Kernel) Run() {
	for k.Pending() > 0 && !k.stopped {
		if k.pollCancel() {
			return
		}
		k.step()
	}
	if k.q != nil && k.q.n == 0 {
		k.qs.Put(k.q)
		k.qs.Release()
		k.q = nil
	}
}

// RunUntil executes events with time ≤ limit and then advances the
// clock to limit (never backwards), so callers can schedule relative to
// the window's end. Events scheduled after limit remain queued. It
// reports whether the queue drained.
func (k *Kernel) RunUntil(limit Time) bool {
	for {
		ok := k.Pending() > 0
		if k.stopped || k.pollCancel() {
			return !ok
		}
		if !ok || k.q.peek(k.now) > limit {
			if limit > k.now {
				k.now = limit
			}
			return !ok
		}
		k.step()
	}
}

func (k *Kernel) step() {
	at, fn, srv, slot := k.q.pop(k.now)
	k.now = at
	k.steps++
	if k.probe != nil {
		k.probe(at)
	}
	if srv != nil {
		srv.complete(slot)
		return
	}
	fn()
}

// Tracer observes per-request spans at traced resources. One call is
// made per completed service with the request's arrival, service-start,
// and completion times; wait time is start−arrived, service time is
// end−start. The hook runs inline on the event loop, so implementations
// must be cheap and must not schedule events. A nil tracer costs a
// single pointer check per completion and adds no allocations.
type Tracer interface {
	ServerSpan(resource string, lane int, arrived, start, end Time)
}

// teeTracer fans one span out to two tracers, letting a request recorder
// and the invariant checker observe the same resources simultaneously.
type teeTracer struct{ a, b Tracer }

func (t teeTracer) ServerSpan(resource string, lane int, arrived, start, end Time) {
	t.a.ServerSpan(resource, lane, arrived, start, end)
	t.b.ServerSpan(resource, lane, arrived, start, end)
}

// TeeTracer returns a tracer delivering every span to both arguments.
// A nil argument collapses to the other, so callers can compose
// optional tracers without nil checks.
func TeeTracer(a, b Tracer) Tracer {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return teeTracer{a: a, b: b}
}

// Server is an N-way FIFO service center: up to Width requests are in
// service simultaneously; the rest wait in arrival order. It is the
// building block for flash dies (width 1), channel buses (width 1),
// embedded-core pools (width = cores), and similar contended resources.
type Server struct {
	k     *Kernel
	width int
	busy  int
	// The FIFO is a head-indexed slice: popping advances head instead of
	// reslicing (queue = queue[1:]), so the backing array is reused when
	// the queue drains and pops never leak the popped prefix.
	queue  []serverReq
	head   int
	util   *Utilization
	tracer Tracer
	tname  string
	tlane  int
	// In-service requests live in a slot table rather than being captured
	// by completion closures; free lists the reusable slot indices. Both
	// stop growing once the table reaches the high-water in-service count,
	// so steady-state request processing allocates nothing.
	slots []inService
	free  []int32
	// sched, when non-nil, replaces the FIFO above for waiting requests
	// (see sched.go). subSeq numbers submissions for deterministic
	// tie-breaking inside policies; it only advances on the scheduled
	// path, so the default FIFO behaviour is bit-for-bit unchanged.
	sched  Scheduler
	subSeq uint64
}

type serverReq struct {
	service Time
	start   func(start Time) // optional: called when service begins
	done    func()
	arrived Time
	// doneDelay defers done by a fixed post-service latency (Pipe
	// transfers) without a wrapper closure.
	doneDelay Time
	// deadline is the EDF completion target (0 = none; the policy
	// derives one from arrival). Ignored by every other policy.
	deadline Time
	// seq is the submission sequence number, assigned only when a
	// scheduler is attached; policies use it as the FIFO tiebreaker.
	seq uint64
}

// inService is the slot-table record of one request in service.
type inService struct {
	done      func()
	arrived   Time
	startAt   Time
	doneDelay Time
}

// serverSet holds the service centers of one kernel, in the order its
// owners built them. A kernel takes a set off serverShelf at its first
// NewServer and ReleaseServers hands it back, so the next kernel's
// owners get the same servers with the queue, slot and free-list arrays
// the runs before them grew. A set whose kernel built fewer servers
// keeps the rest idle; one that runs short grows.
type serverSet struct {
	srv []*Server
	n   int // handed out to the current kernel
}

var serverShelf = pool.NewShelf(func() *serverSet { return &serverSet{} })

// NewServer returns a service center with the given parallel width,
// drawn from the kernel's server set.
func NewServer(k *Kernel, width int) *Server {
	if width <= 0 {
		panic("sim: server width must be positive")
	}
	set := k.servers
	if set == nil {
		k.ss = serverShelf.List()
		set = k.ss.Get()
		k.servers = set
	}
	if set.n == len(set.srv) {
		set.srv = append(set.srv, &Server{})
	}
	s := set.srv[set.n]
	set.n++
	s.k, s.width = k, width
	return s
}

// ReleaseServers hands every server built on the kernel back for the
// next kernel, keeping their arrays and dropping every callback,
// tracker and policy they hold. Call it once the kernel's owner has
// read everything it needs from them; a server must not be used
// afterwards. A kernel with events pending keeps its servers, because
// those events still name them.
func (k *Kernel) ReleaseServers() {
	set := k.servers
	if set == nil || k.Pending() > 0 {
		return
	}
	for _, s := range set.srv[:set.n] {
		s.reset()
	}
	set.n = 0
	k.ss.Put(set)
	k.ss.Release()
	k.servers = nil
}

// reset returns an idle server to its zero state but for the capacity
// of its arrays. A drained server's queue and slot entries are already
// clear (popFront and complete clear them); clearing the whole capacity
// again keeps an idle set from pinning callbacks whatever got it there.
func (s *Server) reset() {
	clear(s.queue[:cap(s.queue)])
	clear(s.slots[:cap(s.slots)])
	*s = Server{queue: s.queue[:0], slots: s.slots[:0], free: s.free[:0]}
}

// SetUtilization attaches a utilization tracker (may be nil).
func (s *Server) SetUtilization(u *Utilization) { s.util = u }

// SetTracer attaches a request tracer (may be nil) reporting spans under
// the given resource name and lane.
func (s *Server) SetTracer(t Tracer, resource string, lane int) {
	s.tracer, s.tname, s.tlane = t, resource, lane
}

// SetScheduler attaches a queueing policy (see sched.go); nil restores
// the default FIFO. It must be called while the server is quiescent —
// switching policies with requests waiting would strand them in the
// previous queue structure.
func (s *Server) SetScheduler(sc Scheduler) {
	if s.QueueLen() > 0 {
		panic("sim: SetScheduler with requests waiting")
	}
	s.sched = sc
}

// Width returns the number of parallel servers.
func (s *Server) Width() int { return s.width }

// Busy returns how many servers are currently occupied.
func (s *Server) Busy() int { return s.busy }

// QueueLen returns the number of waiting (not yet started) requests.
func (s *Server) QueueLen() int {
	if s.sched != nil {
		return s.sched.size()
	}
	return len(s.queue) - s.head
}

// popFront removes and returns the oldest waiting request.
func (s *Server) popFront() serverReq {
	r := s.queue[s.head]
	s.queue[s.head] = serverReq{} // release callback references
	s.head++
	switch {
	case s.head == len(s.queue):
		// Drained: rewind to reuse the backing array.
		s.queue = s.queue[:0]
		s.head = 0
	case s.head > 32 && s.head > len(s.queue)/2:
		// Mostly-consumed prefix: compact so the array cannot grow
		// without bound under a persistent backlog.
		n := copy(s.queue, s.queue[s.head:])
		for i := n; i < len(s.queue); i++ {
			s.queue[i] = serverReq{}
		}
		s.queue = s.queue[:n]
		s.head = 0
	}
	return r
}

// Submit enqueues a request needing the given service time. done runs when
// service completes; it may be nil.
func (s *Server) Submit(service Time, done func()) {
	s.submit(serverReq{service: service, done: done})
}

// SubmitFull enqueues a request carrying an EDF completion target;
// start (optional) runs when service begins, receiving the start time,
// and done (optional) when it completes. Only a deadline-aware
// scheduler reads the deadline; 0 means none.
func (s *Server) SubmitFull(service, deadline Time, start func(Time), done func()) {
	s.submit(serverReq{service: service, start: start, done: done, deadline: deadline})
}

// SubmitDelayed enqueues a request whose done callback runs extra time
// after service completes — the fixed post-service latency of a Pipe —
// without the wrapper closure Submit would need.
func (s *Server) SubmitDelayed(service, extra Time, done func()) {
	s.submit(serverReq{service: service, done: done, doneDelay: extra})
}

func (s *Server) submit(r serverReq) {
	if r.service < 0 {
		panic("sim: negative service time")
	}
	r.arrived = s.k.Now()
	if s.busy < s.width {
		s.begin(r)
		return
	}
	if s.sched != nil {
		s.subSeq++
		r.seq = s.subSeq
		s.sched.push(r)
		return
	}
	s.queue = append(s.queue, r)
}

func (s *Server) begin(r serverReq) {
	s.busy++
	startAt := s.k.Now()
	if s.util != nil {
		s.util.Add(startAt, +1)
	}
	if r.start != nil {
		r.start(startAt)
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slots))
		s.slots = append(s.slots, inService{})
	}
	s.slots[slot] = inService{done: r.done, arrived: r.arrived, startAt: startAt, doneDelay: r.doneDelay}
	s.k.afterServer(r.service, s, slot)
}

// complete finishes the request in the given slot. Dispatched directly
// from the kernel's event loop (see event).
func (s *Server) complete(slot int32) {
	r := s.slots[slot]
	s.slots[slot] = inService{} // release the callback reference
	s.free = append(s.free, slot)
	s.busy--
	if s.util != nil {
		s.util.Add(s.k.Now(), -1)
	}
	if s.tracer != nil {
		s.tracer.ServerSpan(s.tname, s.tlane, r.arrived, r.startAt, s.k.Now())
	}
	// Hand the freed slot to the chosen waiter before running done:
	// a Submit issued synchronously from the completion callback
	// would otherwise see busy < width and begin service at once,
	// jumping ahead of requests that arrived earlier.
	if s.sched != nil {
		if s.busy < s.width {
			if w, ok := s.sched.pop(); ok {
				s.begin(w)
			}
		}
	} else if s.QueueLen() > 0 && s.busy < s.width {
		s.begin(s.popFront())
	}
	switch {
	case r.done == nil:
	case r.doneDelay > 0:
		s.k.After(r.doneDelay, r.done)
	default:
		r.done()
	}
}

// Pipe is a bandwidth-limited byte mover with fixed per-transfer latency:
// a transfer of n bytes occupies the pipe for n/bandwidth and completes
// latency later. It models the SSD's DRAM port and PCIe link, and the
// cluster fabric's ports.
type Pipe struct {
	srv         *Server
	bytesPerSec float64
	latency     Time

	// OnBytes, when set, receives every transfer's size as it is
	// submitted, for energy accounting.
	OnBytes func(n int)
}

// NewPipe returns a pipe with the given bandwidth (bytes/second) and fixed
// latency added to every transfer.
func NewPipe(k *Kernel, bytesPerSec float64, latency Time) *Pipe {
	if bytesPerSec <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{srv: NewServer(k, 1), bytesPerSec: bytesPerSec, latency: latency}
}

// SetTracer attaches a request tracer to the underlying server.
func (p *Pipe) SetTracer(t Tracer, resource string, lane int) {
	p.srv.SetTracer(t, resource, lane)
}

// OccupancyFor returns the bus-occupancy time for n bytes.
func (p *Pipe) OccupancyFor(n int) Time {
	return Time(math.Ceil(float64(n) / p.bytesPerSec * float64(Second)))
}

// Transfer moves n bytes through the pipe and runs done on completion.
func (p *Pipe) Transfer(n int, done func()) {
	if n < 0 {
		panic("sim: negative transfer size")
	}
	if p.OnBytes != nil {
		p.OnBytes(n)
	}
	p.srv.SubmitDelayed(p.OccupancyFor(n), p.latency, done)
}

// Occupancy reports (in-service, queued) transfers on the pipe — both
// zero once a run has drained.
func (p *Pipe) Occupancy() (busy, queued int) { return p.srv.Busy(), p.srv.QueueLen() }

// Utilization tracks how many units of a resource pool are active over
// time, producing both a time-weighted mean and a downsampled timeline
// (used for the paper's Figure 15 active-channels/dies plots).
type Utilization struct {
	active   int
	last     Time
	weighted float64 // ∫ active dt
	peak     int
	points   []UtilPoint
	maxPts   int
}

// UtilPoint is one sample of the active-unit count.
type UtilPoint struct {
	At     Time
	Active int
}

// NewUtilization returns a tracker keeping at most maxPoints timeline
// samples (0 means keep none, only aggregate statistics).
func NewUtilization(maxPoints int) *Utilization {
	return &Utilization{maxPts: maxPoints}
}

// Add records a change of delta active units at time t.
func (u *Utilization) Add(t Time, delta int) {
	if t > u.last {
		u.weighted += float64(u.active) * float64(t-u.last)
		u.last = t
	}
	u.active += delta
	if u.active < 0 {
		panic("sim: utilization went negative")
	}
	if u.active > u.peak {
		u.peak = u.active
	}
	if u.maxPts > 0 {
		if len(u.points) == u.maxPts {
			// Halve resolution: keep every other point.
			kept := u.points[:0]
			for i := 0; i < len(u.points); i += 2 {
				kept = append(kept, u.points[i])
			}
			u.points = kept
		}
		u.points = append(u.points, UtilPoint{At: t, Active: u.active})
	}
}

// Mean returns the time-weighted average active count over [0, end].
func (u *Utilization) Mean(end Time) float64 {
	if end <= 0 {
		return 0
	}
	w := u.weighted
	if end > u.last {
		w += float64(u.active) * float64(end-u.last)
	}
	return w / float64(end)
}

// Peak returns the maximum simultaneous active count observed.
func (u *Utilization) Peak() int { return u.peak }

// Timeline returns the recorded (time, active) samples.
func (u *Utilization) Timeline() []UtilPoint { return u.points }
