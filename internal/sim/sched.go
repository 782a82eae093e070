package sim

// This file makes the Server's dequeue decision a pluggable policy.
// A Server with no scheduler attached (the default) serves its waiting
// requests in strict arrival order through the head-indexed FIFO slice
// in sim.go — that path is untouched and remains the zero-cost common
// case. Attaching a Scheduler redirects every waiting request into the
// policy's own queue structure; the policy then chooses which waiter
// receives each freed slot.
//
// Three policies are provided:
//
//   - SJF (shortest job first): a min-heap on service time. Minimizes
//     mean wait on a single server when service times vary; ties break
//     by arrival sequence so the order stays deterministic.
//   - EDF (earliest deadline first): a min-heap on per-request
//     deadlines. Requests submitted without an explicit deadline
//     (SubmitFull with deadline 0, or any plain Submit) get
//     arrived+budget, so seniority converts into urgency and no
//     request starves under sustained load.
//   - TotalFit: a Knuth-Plass-style batch planner. Waiting requests
//     are kept in arrival order; when the policy needs a new batch it
//     runs a dynamic program over the batch-break candidates of the
//     queue's leading window, choosing boundaries that minimize total
//     badness = within-batch stall (the summed waiting time a
//     shortest-first service order leaves inside the batch) plus a
//     quadratic penalty on batch length (the seniority inversion a
//     long reordered batch inflicts on its oldest members). Requests
//     are reordered shortest-first only inside a batch; batches
//     themselves stay in arrival order, so the delay any request can
//     suffer from later arrivals is bounded by one planning window.
//
// Every policy breaks ties by arrival sequence, so a scheduled server
// remains fully deterministic for a given submission schedule.

// Scheduler orders a Server's waiting requests. Implementations live in
// this package (the methods traffic in the unexported request record);
// construct them with NewSJF, NewEDF, or NewTotalFit and attach with
// (*Server).SetScheduler. A scheduler instance must not be shared
// between servers — each holds per-server queue state.
type Scheduler interface {
	// push adds a waiting request (called only when all slots are busy).
	push(r serverReq)
	// pop removes and returns the next request to serve.
	pop() (serverReq, bool)
	// size returns the number of waiting requests.
	size() int
	// name returns the policy's short identifier.
	name() string
}

// schedEntry is one queued request plus its ordering key. seq is the
// server's submission counter, the deterministic FIFO tiebreaker.
type schedEntry struct {
	r   serverReq
	key Time
	seq uint64
}

func (e schedEntry) before(o schedEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

// entryHeap is a slice-backed binary min-heap of schedEntry, ordered by
// (key, seq). Policies on contended die/channel servers see queue
// depths in the tens, where a binary heap's constant factor wins.
type entryHeap []schedEntry

func (h *entryHeap) push(e schedEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *entryHeap) pop() schedEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = schedEntry{} // release callback references
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q[l].before(q[best]) {
			best = l
		}
		if r < n && q[r].before(q[best]) {
			best = r
		}
		if best == i {
			return top
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
}

// sjfSched serves the waiting request with the shortest service time.
type sjfSched struct{ h entryHeap }

// NewSJF returns a shortest-job-first scheduler.
func NewSJF() Scheduler { return &sjfSched{} }

func (s *sjfSched) push(r serverReq) {
	s.h.push(schedEntry{r: r, key: r.service, seq: r.seq})
}

func (s *sjfSched) pop() (serverReq, bool) {
	if len(s.h) == 0 {
		return serverReq{}, false
	}
	return s.h.pop().r, true
}

func (s *sjfSched) size() int    { return len(s.h) }
func (s *sjfSched) name() string { return "sjf" }

// edfSched serves the waiting request with the earliest deadline.
type edfSched struct {
	h      entryHeap
	budget Time
}

// NewEDF returns an earliest-deadline-first scheduler. Requests
// carrying no explicit deadline are assigned arrival time + budget, so
// a request's urgency grows with its seniority and none starves.
func NewEDF(budget Time) Scheduler {
	if budget <= 0 {
		panic("sim: EDF budget must be positive")
	}
	return &edfSched{budget: budget}
}

func (s *edfSched) push(r serverReq) {
	dl := r.deadline
	if dl == 0 {
		dl = r.arrived + s.budget
	}
	s.h.push(schedEntry{r: r, key: dl, seq: r.seq})
}

func (s *edfSched) pop() (serverReq, bool) {
	if len(s.h) == 0 {
		return serverReq{}, false
	}
	return s.h.pop().r, true
}

func (s *edfSched) size() int    { return len(s.h) }
func (s *edfSched) name() string { return "edf" }

// totalFitSched is the Knuth-Plass-style batch planner described at the
// top of the file. pending holds waiting requests in arrival order
// (head-indexed like the Server's own FIFO); batch holds the currently
// planned batch, shortest-first.
type totalFitSched struct {
	pending []schedEntry
	head    int
	batch   []schedEntry
	bhead   int

	maxBatch int
	penalty  Time

	// Planning scratch, reused across plans.
	best    []Time // best[i]: minimal badness of splitting window[i:]
	firstBk []int  // firstBk[i]: first break of that optimal split
	sorted  []Time // running sorted services while scanning a segment
}

// NewTotalFit returns the DP batch planner. maxBatch caps the size of
// one batch (and the window the DP scans); penalty is the per-request²
// badness of extending a batch — 0 collapses to windowed SJF, large
// values collapse to FIFO.
func NewTotalFit(maxBatch int, penalty Time) Scheduler {
	if maxBatch < 1 {
		panic("sim: total-fit batch cap must be positive")
	}
	if penalty < 0 {
		panic("sim: total-fit penalty must be non-negative")
	}
	return &totalFitSched{maxBatch: maxBatch, penalty: penalty}
}

func (s *totalFitSched) push(r serverReq) {
	s.pending = append(s.pending, schedEntry{r: r, seq: r.seq})
}

func (s *totalFitSched) pop() (serverReq, bool) {
	if s.bhead == len(s.batch) {
		s.plan()
	}
	if s.bhead == len(s.batch) {
		return serverReq{}, false
	}
	e := s.batch[s.bhead]
	s.batch[s.bhead] = schedEntry{}
	s.bhead++
	return e.r, true
}

func (s *totalFitSched) size() int {
	return (len(s.pending) - s.head) + (len(s.batch) - s.bhead)
}

func (s *totalFitSched) name() string { return "totalfit" }

// plan chooses the next batch: a DP over break positions of the
// pending queue's leading window picks the boundary sequence with
// minimal total badness, and the first segment becomes the batch,
// re-sorted shortest-first. Only the first segment is consumed — the
// rest of the queue replans once it drains, folding in new arrivals.
func (s *totalFitSched) plan() {
	n := len(s.pending) - s.head
	if n == 0 {
		return
	}
	// The DP window: one batch plus what could form the next few. A
	// bounded window keeps planning O(window²) per batch regardless of
	// backlog depth; requests beyond it keep strict arrival order.
	window := 4 * s.maxBatch
	if n < window {
		window = n
	}
	w := s.pending[s.head : s.head+window]

	s.best = resizeTimes(s.best, window+1)
	s.firstBk = resizeInts(s.firstBk, window+1)
	s.best[window] = 0
	for i := window - 1; i >= 0; i-- {
		s.sorted = s.sorted[:0]
		var stall Time // within-batch waiting under shortest-first order
		var svc Time   // the batch's total service time
		bestCost := Time(-1)
		bestK := 1
		for k := 1; i+k <= window && k <= s.maxBatch; k++ {
			stall += s.insertService(w[i+k-1].r.service)
			svc += w[i+k-1].r.service
			span := Time(k - 1)
			// Total waiting this batch induces: stall inside it, plus its
			// whole service delaying every later request in the window.
			// Without the cross-batch term, splitting would look free and
			// the DP would degenerate to singleton batches (pure FIFO).
			badness := stall + svc*Time(window-i-k) + s.penalty*span*span
			cost := badness + s.best[i+k]
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				bestK = k
			}
		}
		s.best[i] = bestCost
		s.firstBk[i] = bestK
	}

	k := s.firstBk[0]
	s.batch = s.batch[:0]
	s.bhead = 0
	s.batch = append(s.batch, s.pending[s.head:s.head+k]...)
	for i := s.head; i < s.head+k; i++ {
		s.pending[i] = schedEntry{}
	}
	s.head += k
	if s.head == len(s.pending) {
		s.pending = s.pending[:0]
		s.head = 0
	} else if s.head > 32 && s.head > len(s.pending)/2 {
		m := copy(s.pending, s.pending[s.head:])
		for i := m; i < len(s.pending); i++ {
			s.pending[i] = schedEntry{}
		}
		s.pending = s.pending[:m]
		s.head = 0
	}
	// Shortest-first inside the batch (insertion sort: batches are
	// small and nearly sorted workloads are common).
	for i := 1; i < len(s.batch); i++ {
		e := s.batch[i]
		j := i - 1
		for j >= 0 && (s.batch[j].r.service > e.r.service ||
			(s.batch[j].r.service == e.r.service && s.batch[j].seq > e.seq)) {
			s.batch[j+1] = s.batch[j]
			j--
		}
		s.batch[j+1] = e
	}
}

// insertService adds one service time to the running sorted segment and
// returns the marginal within-batch stall: pairing the new request
// against every request already in the segment, the shorter of each
// pair waits for the longer to be chosen first under shortest-first
// order — shorter existing entries delay the newcomer, and the
// newcomer delays longer existing ones.
func (s *totalFitSched) insertService(v Time) Time {
	var below Time // sum of services strictly shorter than v
	var above int  // count of services >= v
	pos := len(s.sorted)
	for i, u := range s.sorted {
		if u < v {
			below += u
		} else {
			above = len(s.sorted) - i
			pos = i
			break
		}
	}
	s.sorted = append(s.sorted, 0)
	copy(s.sorted[pos+1:], s.sorted[pos:])
	s.sorted[pos] = v
	return below + v*Time(above)
}

func resizeTimes(s []Time, n int) []Time {
	if cap(s) < n {
		return make([]Time, n)
	}
	return s[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
