// Command beaconserved serves platform simulations and paper
// experiments over HTTP: the simulation-as-a-service front end of this
// repository. Where beaconsim and beaconbench are one-shot batch tools,
// beaconserved is a long-lived daemon with a bounded worker pool, an
// LRU result cache, admission control, per-request deadlines, and a
// Prometheus metrics endpoint.
//
// Usage:
//
//	beaconserved                              # listen on :8080
//	beaconserved -addr 127.0.0.1:9090 -workers 8 -queue-depth 32
//	beaconserved -pprof                       # expose /debug/pprof/
//	beaconserved -hedge-after 2s -breaker-threshold 5   # tune resilience
//	beaconserved -chaos-engine-fail-rate 0.3 -chaos-seed 7  # armed fault injection
//	beaconserved -cluster 3                   # 3 in-process replicas, consistent-hash routed
//
// Requests are served through a resilience stack: transient engine
// faults retry under a token budget with jittered exponential backoff,
// stalled simulations can race a hedged duplicate, and a per-
// (platform, dataset) circuit breaker sheds to degraded mode — stale
// last-known-good results marked with X-Degraded/Warning headers —
// instead of failing. The -chaos-* flags arm the deterministic fault
// injector (internal/chaos) for drills; all injection is off by
// default and costs nothing when disabled.
//
// Endpoints:
//
//	POST /v1/simulate     run (or fetch from cache) one simulation
//	POST /v1/experiment   reproduce one paper table/figure
//	GET  /v1/experiments  list experiment ids
//	GET  /healthz         liveness + drain state
//	GET  /metrics         Prometheus text exposition
//
// With -cluster N the daemon runs N in-process replicas — each with its
// own engine, caches, and resilience stack — behind a consistent-hash
// router with cache-aware placement (a given request body always lands
// on the same replica). Dead replicas are routed around via per-replica
// circuit breakers, and three router-level endpoints appear:
//
//	GET  /v1/replicas              replica states
//	POST /v1/replicas/{id}/kill    simulate replica failure
//	POST /v1/replicas/{id}/recover restore a killed replica
//
// On SIGTERM/SIGINT the daemon drains: /healthz flips to 503, new work
// is refused, in-flight requests finish (bounded by -drain-timeout),
// and the process exits 0 on a clean drain, 1 otherwise.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"beacongnn/internal/chaos"
	"beacongnn/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("beaconserved", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		clusterN     = fs.Int("cluster", 0, "run N in-process replicas behind consistent-hash request routing (0/1 = single server)")
		workers      = fs.Int("workers", 0, "concurrent simulations (0 = all CPU cores)")
		queueDepth   = fs.Int("queue-depth", 0, "admitted request cap before 429 shedding (0 = 4x workers)")
		cacheResults = fs.Int("cache-results", 0, "LRU cap on memo entries, one per simulation: its result and JSON encoding; also caps the body index of validated simulate bodies (0 = 512)")
		cacheInsts   = fs.Int("cache-instances", 0, "LRU cap on materialized dataset instances (0 = 8)")
		timeout      = fs.Duration("timeout", 0, "default per-request deadline (0 = 120s)")
		maxTimeout   = fs.Duration("max-timeout", 0, "ceiling on client-requested deadlines (0 = 10m)")
		maxNodes     = fs.Int("max-nodes", 0, "largest materialized graph a request may ask for (0 = 200000)")
		check        = fs.Bool("check", false, "verify run invariants on every simulation")
		pprofOn      = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "hard drain deadline: in-flight requests past it are cancelled")

		maxAttempts  = fs.Int("max-attempts", 0, "tries per request against transient faults incl. the first (0 = 3)")
		retryBudget  = fs.Float64("retry-budget", 0, "retry-budget earn ratio (0 = 0.2, negative disables retries)")
		retryBackoff = fs.Duration("retry-backoff", 0, "exponential retry backoff base (0 = 50ms)")
		retryBackMax = fs.Duration("retry-backoff-max", 0, "retry backoff ceiling (0 = 2s)")
		hedgeAfter   = fs.Duration("hedge-after", 0, "launch a duplicate simulation after this stall (0 = hedging off)")
		brkThreshold = fs.Int("breaker-threshold", 0, "consecutive failures tripping a family's circuit breaker (0 = 5)")
		brkCooldown  = fs.Duration("breaker-cooldown", 0, "breaker open dwell before a half-open probe (0 = 10s)")
		staleCap     = fs.Int("stale-cap", 0, "LRU cap on last-known-good results for degraded mode (0 = 64)")
		retryCeiling = fs.Duration("retry-after-ceiling", 0, "cap on the Retry-After estimate sent to shed clients (0 = 60s)")
		capacityQPS  = fs.Float64("capacity-qps", 0, "measured capacity knee (knee_qps from beaconbench -exp capacity -json); sustained load above it sheds by rate (0 = disabled)")

		chaosSeed       = fs.Uint64("chaos-seed", 0, "chaos injection schedule seed")
		chaosFailRate   = fs.Float64("chaos-engine-fail-rate", 0, "P(simulation run fails transiently)")
		chaosFailAfter  = fs.Uint64("chaos-engine-fail-after", 0, "grace period: first N runs are immune to engine faults")
		chaosStallRate  = fs.Float64("chaos-engine-stall-rate", 0, "P(simulation run stalls holding its worker slot)")
		chaosStall      = fs.Duration("chaos-engine-stall", 0, "injected engine stall duration (0 = 50ms)")
		chaosEvictRate  = fs.Float64("chaos-evict-rate", 0, "P(simulation run triggers a memo eviction storm)")
		chaosEvictBurst = fs.Int("chaos-evict-burst", 0, "memo entries dropped per eviction storm (0 = 4)")
		chaosDropRate   = fs.Float64("chaos-http-drop-rate", 0, "P(request refused with 503 before handling)")
		chaosLatRate    = fs.Float64("chaos-http-latency-rate", 0, "P(request delayed before handling)")
		chaosLatency    = fs.Duration("chaos-http-latency", 0, "injected HTTP delay (0 = 100ms)")
		chaosTruncRate  = fs.Float64("chaos-http-trunc-rate", 0, "P(response body truncated mid-stream)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(os.Stderr, "beaconserved: ", log.LstdFlags)

	ccfg := chaos.Config{
		Seed:            *chaosSeed,
		EngineFailRate:  *chaosFailRate,
		EngineFailAfter: *chaosFailAfter,
		EngineStallRate: *chaosStallRate,
		EngineStall:     *chaosStall,
		EvictRate:       *chaosEvictRate,
		EvictBurst:      *chaosEvictBurst,
		HTTPDropRate:    *chaosDropRate,
		HTTPLatencyRate: *chaosLatRate,
		HTTPLatency:     *chaosLatency,
		HTTPTruncRate:   *chaosTruncRate,
	}
	if err := ccfg.Validate(); err != nil {
		logger.Print(err)
		return 2
	}
	if ccfg.Active() {
		logger.Printf("CHAOS INJECTION ARMED (seed %d) — this daemon will fault on purpose", ccfg.Seed)
	}

	scfg := serve.Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		CacheResults:      *cacheResults,
		CacheInstances:    *cacheInsts,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		MaxNodes:          *maxNodes,
		Check:             *check,
		EnablePprof:       *pprofOn,
		MaxAttempts:       *maxAttempts,
		RetryBudgetRatio:  *retryBudget,
		RetryBackoffBase:  *retryBackoff,
		RetryBackoffMax:   *retryBackMax,
		HedgeAfter:        *hedgeAfter,
		BreakerThreshold:  *brkThreshold,
		BreakerCooldown:   *brkCooldown,
		StaleCap:          *staleCap,
		RetryAfterCeiling: *retryCeiling,
		CapacityQPS:       *capacityQPS,
		DrainTimeout:      *drainTimeout,
		Chaos:             ccfg,
	}
	var (
		handler        http.Handler
		beginDrain     func()
		cancelInflight func() int
		engineStats    func() (uint64, uint64)
	)
	if *clusterN > 1 {
		cl := serve.NewCluster(*clusterN, scfg)
		handler, beginDrain, cancelInflight, engineStats = cl, cl.BeginDrain, cl.CancelInflight, cl.Stats
		logger.Printf("cluster mode: %d replicas behind consistent-hash routing", *clusterN)
	} else {
		srv := serve.New(scfg)
		handler, beginDrain, cancelInflight = srv, srv.BeginDrain, srv.CancelInflight
		engineStats = func() (uint64, uint64) { return srv.Engine().Stats() }
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		logger.Printf("listen failed: %v", err)
		return 1
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining (hard deadline %v)", *drainTimeout)
	beginDrain()
	// Hard drain deadline: past it, stragglers are cancelled through
	// their per-request contexts (aborting simulation kernels mid-run)
	// rather than holding shutdown hostage. The Shutdown context gets a
	// short grace on top so cancelled handlers can still write their
	// error responses and the drain counts as clean.
	deadline := time.AfterFunc(*drainTimeout, func() {
		if n := cancelInflight(); n > 0 {
			logger.Printf("drain deadline reached; cancelled %d in-flight request(s)", n)
		}
	})
	defer deadline.Stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
		return 1
	}
	runs, hits := engineStats()
	logger.Printf("drained cleanly (%d simulations run, %d memo hits); bye", runs, hits)
	return 0
}
