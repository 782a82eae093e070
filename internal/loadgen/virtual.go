package loadgen

import (
	"fmt"

	"beacongnn/internal/sim"
)

// VirtualBackend models a serving platform as a W-way service center in
// virtual time: per-class service times (calibrated from memoized real
// simulations by the capacity and chaos experiments), an optional LRU
// result cache keyed by class, an optional admission queue bound, and
// an optional fault window with the resilience stack that rides it out.
// The event loop is single-threaded and its only randomness is the
// seeded per-request decision stream, so a run is a pure function of
// (schedule, backend) — byte-identical at any -parallel width.
type VirtualBackend struct {
	Workers int        // service-center width (> 0)
	Service []sim.Time // service time per class; len must cover every class

	// CacheCap > 0 enables an LRU result cache over classes: a hit
	// serves in CacheHit instead of the class service time and does not
	// occupy a worker (mirrors beaconserved's memo fast path).
	CacheCap int
	CacheHit sim.Time

	// Queue > 0 sheds arrivals that find that many requests already
	// waiting (mirrors beaconserved's admission depth). 0 = unbounded.
	Queue int

	Tracer sim.Tracer // optional: receives loadgen.backend spans

	// Resilience, when set, runs every admitted request through its
	// fault window and resilience stack; nil is the plain service center.
	Resilience *Resilience
}

func (b VirtualBackend) validate(sched []Request) error {
	if b.Workers <= 0 {
		return fmt.Errorf("loadgen: virtual backend needs positive worker count, got %d", b.Workers)
	}
	if len(b.Service) == 0 {
		return fmt.Errorf("loadgen: virtual backend needs at least one class service time")
	}
	for _, r := range sched {
		if r.Class < 0 || r.Class >= len(b.Service) {
			return fmt.Errorf("loadgen: request %d class %d outside the %d configured service classes",
				r.ID, r.Class, len(b.Service))
		}
	}
	return nil
}

// lruCache is a tiny ordered-slice LRU over class ids — capacities here
// are small (tens), so O(cap) moves beat pointer-chasing a list.
type lruCache struct {
	cap  int
	keys []int
}

func (c *lruCache) touch(class int) bool {
	for i, k := range c.keys {
		if k == class {
			copy(c.keys[1:i+1], c.keys[:i])
			c.keys[0] = class
			return true
		}
	}
	if len(c.keys) < c.cap {
		c.keys = append(c.keys, 0)
	}
	copy(c.keys[1:], c.keys)
	c.keys[0] = class
	return false
}

// virtualRun is one RunVirtual replay's shared state.
type virtualRun struct {
	k    *sim.Kernel
	srv  *sim.Server
	res  StepResult
	lat  []sim.Time // full-success latencies
	last sim.Time   // when the last request settled
}

// settled notes that a request reached its outcome now.
func (v *virtualRun) settled() {
	if now := v.k.Now(); now > v.last {
		v.last = now
	}
}

// served records a full success for a request intended to start at at.
func (v *virtualRun) served(at sim.Time) {
	v.res.OK++
	v.lat = append(v.lat, v.k.Now()-at)
	v.settled()
}

// RunVirtual replays the schedule against the backend in virtual time
// and returns the step's measured curve point. Latency is completion
// minus the request's intended start — coordinated-omission-safe by
// construction, since the virtual clock fires every arrival exactly at
// its intended time no matter how far behind the service center is.
// Goodput divides full successes by the time the last request settled,
// not by the clock after timers that outlive every request.
func RunVirtual(sched []Request, b VirtualBackend) (StepResult, error) {
	if err := b.validate(sched); err != nil {
		return StepResult{}, err
	}
	k := sim.New()
	v := &virtualRun{k: k, srv: sim.NewServer(k, b.Workers), res: StepResult{Requests: len(sched)},
		lat: make([]sim.Time, 0, len(sched))}
	if b.Tracer != nil {
		v.srv.SetTracer(b.Tracer, "loadgen.backend", 0)
	}
	cache := &lruCache{cap: b.CacheCap}
	var rs *resilience
	if b.Resilience != nil {
		rs = newResilience(v, *b.Resilience, b.Service)
	}
	for i := range sched {
		req := sched[i] // capture by value: the closure outlives the loop
		k.At(req.At, func() {
			if b.CacheCap > 0 && cache.touch(req.Class) {
				// Memo fast path: served inline without a worker.
				k.After(b.CacheHit, func() { v.served(req.At) })
				return
			}
			if b.Queue > 0 && v.srv.QueueLen() >= b.Queue {
				v.res.Shed++
				v.settled()
				return
			}
			if rs != nil {
				rs.arrive(req)
				return
			}
			v.srv.Submit(b.Service[req.Class], func() { v.served(req.At) })
		})
	}
	k.Run()
	if rs != nil {
		rs.finish()
	}
	k.ReleaseServers()

	res := v.res
	if n := res.OK + res.Shed + res.Failed + res.Degraded + res.Dropped; n != res.Requests {
		return StepResult{}, fmt.Errorf("loadgen: outcomes leak: %d settled of %d requests", n, res.Requests)
	}
	res.MakespanNs = int64(v.last)
	res.MeanNs, res.P50Ns, res.P99Ns, res.P999Ns, res.MaxNs = latSummary(v.lat)
	if v.last > 0 {
		res.GoodputQPS = float64(res.OK) / v.last.Seconds()
	}
	if len(sched) > 0 {
		span := sched[len(sched)-1].At
		if span > 0 {
			res.OfferedQPS = float64(len(sched)) / span.Seconds()
		}
	}
	return res, nil
}
