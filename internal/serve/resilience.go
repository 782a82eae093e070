package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"beacongnn/internal/chaos"
	"beacongnn/internal/dataset"
	"beacongnn/internal/exp"
)

// breakerSet owns one circuit breaker per (platform, dataset) family.
// Lookup is a struct-keyed map read under RWMutex — no allocation on
// the request hot path; the labeled state gauge is built once, when a
// family's breaker is first created.
type breakerSet struct {
	mu  sync.RWMutex
	cfg chaos.BreakerConfig
	m   map[family]*chaos.Breaker
	reg *registry
}

func newBreakerSet(cfg chaos.BreakerConfig, reg *registry) *breakerSet {
	return &breakerSet{cfg: cfg, m: make(map[family]*chaos.Breaker), reg: reg}
}

// get returns (creating on first use) the family's breaker.
func (bs *breakerSet) get(f family) *chaos.Breaker {
	bs.mu.RLock()
	b, ok := bs.m[f]
	bs.mu.RUnlock()
	if ok {
		return b
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b, ok = bs.m[f]; ok {
		return b
	}
	b = chaos.NewBreaker(bs.cfg)
	gauge := bs.reg.Gauge(fmt.Sprintf(
		"beaconserved_breaker_state{platform=%q,dataset=%q}", f.kind, f.dataset))
	gauge.Set(int64(chaos.Closed))
	b.OnStateChange(func(st chaos.BreakerState) { gauge.Set(int64(st)) })
	bs.m[f] = b
	return b
}

// runResilient executes the simulate job with the full resilience
// stack: per-attempt breaker accounting, bounded retries against
// transient faults under the retry budget, exponential backoff with
// deterministic per-key jitter, and hedged duplicates for stragglers.
// The memo-hit path never comes here — the caller answers hits from
// its one memo lookup, so the hot path pays none of this.
func (s *Server) runResilient(ctx context.Context, bk *chaos.Breaker, job *simJob, inst *dataset.Instance) (*exp.Memo, error) {
	backoff := chaos.Backoff{
		Base: s.cfg.RetryBackoffBase.Nanoseconds(),
		Max:  s.cfg.RetryBackoffMax.Nanoseconds(),
	}
	for attempt := 0; ; attempt++ {
		m, err := s.simulateHedged(ctx, job, inst, attempt)
		if err == nil {
			bk.Record(time.Now().UnixNano(), true)
			return m, nil
		}
		if ctx.Err() != nil {
			// Our own cancellation (client gone, deadline, drain) says
			// nothing about downstream health: release the probe slot
			// and do not count a failure.
			bk.CancelProbe()
			return nil, err
		}
		bk.Record(time.Now().UnixNano(), false)
		if !exp.IsTransient(err) {
			return nil, err // deterministic simulation failure; retrying cannot help
		}
		if attempt+1 >= s.cfg.MaxAttempts || bk.State() == chaos.Open || !s.budget.Spend() {
			return nil, err
		}
		s.reg.Counter("beaconserved_retries_total").Inc()
		// Jitter is a pure function of (key digest, attempt): the retry
		// schedule for a request is reproducible, yet distinct keys
		// decorrelate.
		u := chaos.JitterU(job.key.Digest, uint64(attempt))
		select {
		case <-time.After(time.Duration(backoff.Delay(attempt, u))):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// simulateHedged runs one attempt, racing a hedged duplicate against
// the primary when the primary stalls past HedgeAfter. The duplicate
// bypasses the memo (SimulateFreshCtx) so it cannot dedupe into the
// very in-flight entry it is racing; the loser's context is cancelled
// and the abandonment is observed mid-kernel.
func (s *Server) simulateHedged(ctx context.Context, job *simJob, inst *dataset.Instance, attempt int) (*exp.Memo, error) {
	if s.cfg.HedgeAfter <= 0 {
		return s.eng.SimulateKeyCtx(ctx, job.key, &job.cfg, inst)
	}
	type outcome struct {
		m     *exp.Memo
		err   error
		hedge bool
	}
	raceCtx, cancelRace := context.WithCancel(ctx)
	defer cancelRace()
	ch := make(chan outcome, 2)
	go func() {
		m, err := s.eng.SimulateKeyCtx(raceCtx, job.key, &job.cfg, inst)
		ch <- outcome{m, err, false}
	}()
	timer := time.NewTimer(s.cfg.HedgeAfter)
	defer timer.Stop()
	launched := false
	pending := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !launched {
				launched = true
				pending++
				s.reg.Counter("beaconserved_hedges_total").Inc()
				go func() {
					m, err := s.eng.SimulateFreshCtx(raceCtx, job.key, &job.cfg, inst, attempt+1)
					ch <- outcome{m, err, true}
				}()
			}
		case out := <-ch:
			pending--
			if out.err == nil {
				if out.hedge {
					s.reg.Counter("beaconserved_hedge_wins_total").Inc()
				}
				cancelRace() // the loser abandons mid-kernel; its memo entry is released, not poisoned
				return out.m, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if pending == 0 {
				return nil, firstErr
			}
			// One racer failed; the other may still succeed. Stop the
			// hedge timer from launching a second duplicate of a run
			// that already demonstrated failure.
		case <-ctx.Done():
			// Drain both racers' sends (buffered channel) via cancel;
			// return promptly with the caller's error.
			cancelRace()
			return nil, ctx.Err()
		}
	}
}
