package loadgen

import (
	"beacongnn/internal/chaos"
	"beacongnn/internal/sim"
)

// Resilience arms RunVirtual's per-request attempt lifecycle: a fault
// window inside which attempts fail, stall or are dropped at the front
// door, and the resilience stack that rides it out — retries under a
// retry budget with jittered exponential backoff, a hedged duplicate of
// a slow first attempt, and a circuit breaker whose refusals serve a
// stale result once any request has fully succeeded. Every decision is
// a pure function of (Seed, site, request ID, attempt).
type Resilience struct {
	// Fault window: attempts that start in [Window[0], Window[1]) run at
	// FaultService when set, and draw the rates below.
	Window       [2]sim.Time
	FaultService sim.Time
	FailRate     float64 // P(attempt fails)
	StallRate    float64 // P(attempt's service stretches by StallFactor)
	StallFactor  float64
	DropRate     float64 // P(arrival refused at the front door)

	MaxAttempts int                 // tries per request, the first included
	Backoff     chaos.Backoff       // retry delay, sim.Time units
	BudgetRatio float64             // retry-budget earn rate (0 disables retries)
	HedgeAfter  sim.Time            // duplicate a first attempt still running after this (0 = never)
	Breaker     chaos.BreakerConfig // cooldown in sim.Time units
	Seed        uint64              // decision stream seed
}

// resilience is the live stack of one RunVirtual replay.
type resilience struct {
	Resilience
	v       *virtualRun
	service []sim.Time
	budget  *chaos.RetryBudget
	breaker *chaos.Breaker
	draws   *chaos.Stream
	stale   bool // a full success exists to serve under an open breaker
}

// attempted is one request's state across its attempts.
type attempted struct {
	req      Request
	launched int  // attempts launched so far
	settled  bool // a terminal outcome was recorded
	hedgeIdx int  // attempt index of the hedge launch (-1 = none)
	inflight int  // attempts currently in service
}

func newResilience(v *virtualRun, cfg Resilience, service []sim.Time) *resilience {
	return &resilience{
		Resilience: cfg,
		v:          v,
		service:    service,
		budget:     chaos.NewRetryBudget(cfg.BudgetRatio, 0),
		breaker:    chaos.NewBreaker(cfg.Breaker),
		draws:      chaos.NewStream(cfg.Seed),
	}
}

func (c *resilience) inWindow(t sim.Time) bool {
	return c.Window[1] > c.Window[0] && t >= c.Window[0] && t < c.Window[1]
}

// arrive is the front door: earn retry budget, draw the drop, ask the
// breaker, then launch the first attempt.
func (c *resilience) arrive(req Request) {
	r := &attempted{req: req, hedgeIdx: -1}
	c.budget.Earn()
	now := c.v.k.Now()
	if c.inWindow(now) && c.DropRate > 0 && c.draws.Drop(uint64(req.ID)) < c.DropRate {
		c.settle(r, &c.v.res.Dropped)
		return
	}
	if !c.breaker.Allow(int64(now)) {
		c.fallback(r)
		return
	}
	c.launch(r)
}

func (c *resilience) settle(r *attempted, outcome *int) {
	r.settled = true
	*outcome++
	c.v.settled()
}

// fallback settles a request the stack gave up on: degraded if a stale
// result exists to serve, otherwise a hard failure.
func (c *resilience) fallback(r *attempted) {
	if c.stale {
		c.settle(r, &c.v.res.Degraded)
	} else {
		c.settle(r, &c.v.res.Failed)
	}
}

func (c *resilience) launch(r *attempted) {
	k, res := c.v.k, &c.v.res
	attempt := r.launched
	r.launched++
	r.inflight++
	service := c.service[r.req.Class]
	faulted := c.inWindow(k.Now())
	if faulted && c.FaultService > 0 {
		service = c.FaultService
	}
	key := uint64(r.req.ID)*0x9e3779b97f4a7c15 ^ uint64(attempt)
	if faulted && c.StallRate > 0 && c.draws.Stall(key) < c.StallRate {
		service = sim.Time(float64(service) * c.StallFactor)
	}
	fails := faulted && c.FailRate > 0 && c.draws.Fail(key) < c.FailRate

	// Hedge the first attempt only: a straggler detector, not a second
	// retry ladder.
	if c.HedgeAfter > 0 && attempt == 0 {
		k.After(c.HedgeAfter, func() {
			if r.settled || r.hedgeIdx >= 0 || r.inflight == 0 {
				return
			}
			r.hedgeIdx = r.launched
			res.Hedges++
			c.launch(r)
		})
	}

	c.v.srv.Submit(service, func() {
		r.inflight--
		if r.settled {
			return // the other racer already won; this one is the cancelled loser
		}
		now := int64(k.Now())
		if !fails {
			c.breaker.Record(now, true)
			if attempt == r.hedgeIdx {
				res.HedgeWins++ // the duplicate beat (or outlived) the primary
			}
			r.settled, c.stale = true, true
			c.v.served(r.req.At)
			return
		}
		c.breaker.Record(now, false)
		if r.inflight > 0 {
			return // a hedge is still racing; let it decide
		}
		if r.launched < c.MaxAttempts && c.budget.Spend() {
			res.Retries++
			u := c.draws.Jitter(key)
			k.After(sim.Time(c.Backoff.Delay(r.launched-1, u)), func() {
				if !c.breaker.Allow(int64(k.Now())) {
					c.fallback(r)
					return
				}
				c.launch(r)
			})
			return
		}
		c.fallback(r)
	})
}

// finish copies the breaker's lifetime counters into the result.
func (c *resilience) finish() {
	bs := c.breaker.Stats()
	c.v.res.BreakerTrips = int(bs.Trips)
	if bs.Closes > 0 {
		c.v.res.MTTRNs = bs.OpenTotal / int64(bs.Closes)
	}
}
