package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"beacongnn/internal/chaos"
	"beacongnn/internal/core"
	"beacongnn/internal/exp"
)

// writeJSON writes v with status code; encode failures after the header
// are connection problems, not server state, so they are dropped.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, a ...any) {
	s.reg.Counter(fmt.Sprintf("beaconserved_responses_total{code=%q}", strconv.Itoa(code))).Inc()
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, a...)})
}

func (s *Server) writeOK(w http.ResponseWriter, v any) {
	s.reg.Counter(`beaconserved_responses_total{code="200"}`).Inc()
	writeJSON(w, http.StatusOK, v)
}

// admit runs the shared front half of both heavy endpoints: drain
// refusal and queue-depth shedding. It returns a release func, or ok =
// false with the response already written.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	if !s.adm.tryAcquire() {
		s.reg.Counter("beaconserved_shed_total").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.writeError(w, http.StatusTooManyRequests,
			"queue full (%d requests admitted, cap %d); retry later", s.adm.inflight(), s.cfg.QueueDepth)
		return nil, false
	}
	if !s.adm.allowRate(time.Now()) {
		// Sustained load above the measured capacity knee: shed by rate
		// before the queue absorbs work it cannot finish inside the SLO.
		s.adm.release()
		s.reg.Counter("beaconserved_shed_total").Inc()
		s.reg.Counter("beaconserved_capacity_shed_total").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.capacityRetryAfterSeconds()))
		s.writeError(w, http.StatusTooManyRequests,
			"offered load above the configured capacity knee (%g qps); retry later", s.cfg.CapacityQPS)
		return nil, false
	}
	g := s.reg.Gauge("beaconserved_inflight")
	g.Add(1)
	return func() { g.Add(-1); s.adm.release() }, true
}

// Simulate latencies are tracked per cache outcome: memo hits return in
// microseconds and would drag the median far below the cost of the
// simulations a shed client is actually queueing behind.
const (
	simulateMissSummary = `beaconserved_request_seconds{endpoint="simulate",cache="miss"}`
	simulateHitSummary  = `beaconserved_request_seconds{endpoint="simulate",cache="hit"}`
)

// retryAfterSeconds estimates when a shed client should come back: the
// time for one pool turn to drain at the observed median cache-miss
// request latency, floored at 1s and capped at RetryAfterCeiling — one
// pathological slow miss in the summary must not tell clients to come
// back in hours. With no miss history it answers 1.
func (s *Server) retryAfterSeconds() int {
	count, _, qs := s.reg.Summary(simulateMissSummary).Snapshot(0.5)
	if count == 0 {
		return 1
	}
	turns := float64(s.adm.inflight()) / float64(s.cfg.Workers)
	est := int(math.Ceil(qs[0].Seconds() * turns))
	if est < 1 {
		return 1
	}
	if ceil := int(s.cfg.RetryAfterCeiling.Seconds()); est > ceil {
		return ceil
	}
	return est
}

// capacityRetryAfterSeconds estimates the comeback time from the
// configured knee instead of the observed p50: the bucket refills at
// CapacityQPS, so draining the admitted backlog plus this request takes
// (inflight+1)/qps seconds. Same 1s floor and ceiling as the p50 path.
func (s *Server) capacityRetryAfterSeconds() int {
	est := int(math.Ceil(float64(s.adm.inflight()+1) / s.cfg.CapacityQPS))
	if est < 1 {
		est = 1
	}
	if ceil := int(s.cfg.RetryAfterCeiling.Seconds()); est > ceil {
		est = ceil
	}
	return est
}

// finishErr maps a failed run to a response. Client disconnects get no
// body (nobody is listening); deadline expiry is a 504 so the caller
// can distinguish "too slow" from "invalid".
func (s *Server) finishErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		s.reg.Counter("beaconserved_client_gone_total").Inc()
	case errors.Is(err, context.Canceled) && s.draining.Load():
		// The drain deadline cancelled this straggler mid-run: 503 tells
		// the client to go elsewhere, not that its request was invalid.
		s.writeError(w, http.StatusServiceUnavailable, "server is draining; request cancelled")
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
	default:
		s.writeError(w, http.StatusInternalServerError, "simulation failed: %v", err)
	}
}

// routedJob is the request-context key under which a Cluster hands a
// replica the job (a *simJob or *expJob) its router already decoded and
// validated to place the request.
type routedJob struct{}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	job, routed := r.Context().Value(routedJob{}).(*simJob)
	if !routed {
		j, err := s.decodeSim(r.Body)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		job = &j
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	// Requests that fail before the memo is read, or miss it, are
	// labelled miss.
	latency := simulateMissSummary
	defer func() {
		s.reg.Summary(latency).Observe(time.Since(start))
	}()

	fam := family{kind: job.key.Kind, dataset: job.key.Dataset}
	bk := s.breakers.get(fam)
	if !bk.Allow(time.Now().UnixNano()) {
		s.serveDegraded(w, fam, start, "circuit open")
		return
	}
	s.budget.Earn()

	// One memo lookup decides hit or miss, so the label says what
	// happened: a key evicted after the lookup is a miss that runs
	// through the retry and hedge machinery, never a "hit" that
	// quietly re-simulates. The key was made at validation, so a hit
	// needs no dataset instance.
	m, hit := s.eng.Lookup(job.key)
	if hit {
		latency = simulateHitSummary
		s.reg.Counter("beaconserved_cache_hits_total").Inc()
		bk.Record(time.Now().UnixNano(), true)
	} else {
		ctx, cancel := context.WithTimeout(r.Context(), job.timeout)
		defer cancel()
		untrack := s.inflight.track(cancel)
		defer untrack()
		inst, err := s.eng.Instance(ctx, job.key.Dataset, job.key.Nodes, job.cfg.Flash.PageSize, job.cfg.Seed)
		if err != nil {
			bk.CancelProbe() // materialization says nothing about engine health
			s.finishErr(w, r, err)
			return
		}
		s.reg.Counter("beaconserved_cache_misses_total").Inc()
		mj := *job
		if m, err = s.runResilient(ctx, bk, &mj, inst); err != nil {
			// Transient exhaustion with the breaker now open degrades
			// instead of surfacing a 5xx the client can do nothing about.
			if ctx.Err() == nil && exp.IsTransient(err) && bk.State() == chaos.Open {
				s.serveDegraded(w, fam, start, "retries exhausted; circuit open")
				return
			}
			s.finishErr(w, r, err)
			return
		}
	}
	enc, err := m.JSON()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	res := m.Result
	s.stale.Put(fam, staleRecord{platform: res.Platform, dataset: res.Dataset, result: enc, nodes: job.key.Nodes, batches: job.key.Batches})
	cacheHeader := "miss"
	if hit {
		cacheHeader = "hit"
	}
	w.Header().Set("X-Cache", cacheHeader)
	s.writeSim(w, simEnvelope{
		platform: res.Platform,
		dataset:  res.Dataset,
		nodes:    job.key.Nodes,
		batches:  job.key.Batches,
		cached:   hit,
		wallMS:   float64(time.Since(start).Microseconds()) / 1e3,
	}, enc)
}

// serveDegraded answers under an open breaker: the family's
// last-known-good result with explicit staleness marking (200 with
// X-Degraded/Warning — a deliberate choice over a 5xx the client can
// only blind-retry into the same open circuit), or 503 + Retry-After
// when no stale result exists yet.
func (s *Server) serveDegraded(w http.ResponseWriter, fam family, start time.Time, reason string) {
	rec, ok := s.stale.Get(fam)
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.writeError(w, http.StatusServiceUnavailable,
			"circuit open for %v/%s and no stale result to serve: %s", fam.kind, fam.dataset, reason)
		return
	}
	s.reg.Counter("beaconserved_degraded_total").Inc()
	w.Header().Set("X-Degraded", "true")
	w.Header().Set("X-Cache", "stale")
	w.Header().Set("Warning", `110 beaconserved "stale result: `+reason+`"`)
	s.writeSim(w, simEnvelope{
		platform: rec.platform,
		dataset:  rec.dataset,
		nodes:    rec.nodes,
		batches:  rec.batches,
		cached:   true,
		degraded: true,
		wallMS:   float64(time.Since(start).Microseconds()) / 1e3,
	}, rec.result)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	job, routed := r.Context().Value(routedJob{}).(*expJob)
	if !routed {
		var err error
		if job, err = s.decodeExp(r.Body); err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	defer func() {
		s.reg.Summary(`beaconserved_request_seconds{endpoint="experiment"}`).Observe(time.Since(start))
	}()

	ctx, cancel := context.WithTimeout(r.Context(), job.timeout)
	defer cancel()
	opts := &core.Options{
		ScaleNodes: job.nodes,
		Batches:    job.batches,
		Quick:      job.quick,
		Ctx:        ctx,
		Engine:     s.eng, // shared pool, result memo and instances across requests
	}
	var buf bytes.Buffer
	if err := job.exp.Run(opts, &buf); err != nil {
		s.finishErr(w, r, err)
		return
	}
	s.writeOK(w, ExpResponse{
		ID:     job.exp.ID,
		Title:  job.exp.Title,
		WallMS: float64(time.Since(start).Microseconds()) / 1e3,
		Output: buf.String(),
	})
}

func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	type item struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []item
	for _, e := range core.AllExperiments() {
		out = append(out, item{e.ID, e.Title})
	}
	s.writeOK(w, out)
}

// healthzResponse is the GET /healthz body.
type healthzResponse struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	Inflight      int64   `json:"inflight"`
	QueueCap      int     `json:"queue_cap"`
	Workers       int     `json:"workers"`
	SimRuns       uint64  `json:"sim_runs"`
	MemoHits      uint64  `json:"memo_hits"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	runs, hits := s.eng.Stats()
	resp := healthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Inflight:      s.adm.inflight(),
		QueueCap:      s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		SimRuns:       runs,
		MemoHits:      hits,
	}
	code := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}
