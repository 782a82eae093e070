// Package serve is the simulation-as-a-service layer: a long-lived HTTP
// daemon (cmd/beaconserved) over the batch experiment engine. It turns
// the repository's one-shot CLI entry points into something that can
// hold heavy concurrent traffic:
//
//   - requests run on the bounded worker pool of one shared exp.Engine,
//     so N clients never oversubscribe the machine;
//   - results are memoized in the engine's LRU, one entry per SimKey
//     (the config digest plus platform/dataset/scale) under one cap;
//     an entry keeps the result and, from its first serve, the result's
//     JSON encoding, so a repeat is neither re-simulated nor re-encoded;
//   - a byte-identical repeat of a simulate body is not decoded again:
//     a body index under the same cap maps the body's SHA-256 to its
//     validated job;
//   - admission control sheds load past a queue-depth cap with 429 and
//     a Retry-After estimate instead of queueing unboundedly;
//   - every request carries a deadline, threaded as a context through
//     the engine into the simulation event loop, so abandoned work
//     frees its pool slot mid-run;
//   - shutdown is graceful: /healthz flips to draining, new work is
//     refused, and in-flight runs complete before the process exits.
package serve

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"beacongnn/internal/chaos"
	"beacongnn/internal/exp"
	"beacongnn/internal/metrics"
)

// Config tunes the daemon. The zero value is completed by New with the
// documented defaults.
type Config struct {
	// Workers bounds concurrently running simulations (0 = GOMAXPROCS).
	Workers int
	// QueueDepth caps admitted (queued + running) heavy requests; past
	// it the server sheds with 429. 0 = 4× workers.
	QueueDepth int
	// CacheResults is the LRU cap on memo entries (0 = 512): one per
	// SimKey, holding the platform.Result and, once served, its JSON
	// encoding, ~41 KB together at 10 000 nodes and 4 batches. It also
	// caps the body index, ~0.9 KB per entry: a body's entry pays off
	// only while its result can be resident.
	CacheResults int
	// CacheInstances is the LRU cap on materialized dataset instances
	// (0 = 8). Instances are the big allocation: cap × MaxNodes bounds
	// resident graph memory.
	CacheInstances int
	// DefaultTimeout applies when a request does not set timeout_ms
	// (0 = 120s); MaxTimeout (0 = 10min) caps what clients may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxNodes / MaxBatches bound per-request simulation size at
	// admission (0 = 200 000 nodes, 64 batches).
	MaxNodes   int
	MaxBatches int
	// Check routes every simulation through the invariant checker.
	Check bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// MaxAttempts is the total tries a simulate request gets against
	// transient engine faults, including the first (0 = 3; 1 disables
	// retries). Deterministic simulation errors never retry.
	MaxAttempts int
	// RetryBudgetRatio is the retry-budget earn rate: tokens credited
	// per fresh request, spent one per retry, so retries self-limit to
	// this fraction of offered load under sustained failure (0 = 0.2;
	// negative disables retries entirely).
	RetryBudgetRatio float64
	// RetryBackoffBase/Max bound the exponential retry delay
	// (0 = 50ms base, 2s max); jitter is deterministic per SimKey.
	RetryBackoffBase time.Duration
	RetryBackoffMax  time.Duration
	// HedgeAfter launches a duplicate simulation when the primary has
	// not answered within this long, first result winning and the loser
	// cancelled mid-kernel (0 = hedging off).
	HedgeAfter time.Duration
	// BreakerThreshold consecutive engine failures trip a per-
	// (platform, dataset) circuit breaker (0 = 5); BreakerCooldown is
	// its open dwell before a half-open probe (0 = 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// StaleCap bounds the degraded-mode cache of last-known-good
	// results served under an open breaker (0 = 64).
	StaleCap int
	// RetryAfterCeiling caps the Retry-After estimate handed to shed
	// clients (0 = 60s); the floor stays 1s.
	RetryAfterCeiling time.Duration
	// CapacityQPS is the measured saturation knee from the `-exp
	// capacity` sweep (knee_qps in its JSON report). When > 0, a token
	// bucket refilling at this rate (burst: one second of it) sheds
	// sustained load above the knee with 429 before it reaches the
	// queue, and Retry-After is derived from the knee rate instead of
	// the observed p50 drain estimate. 0 keeps the legacy
	// queue-depth-only admission.
	CapacityQPS float64
	// DrainTimeout is the hard drain deadline: this long after
	// BeginDrain, CancelInflight aborts stragglers via per-request
	// cancellation (0 = 30s). Enforced by the cmd layer.
	DrainTimeout time.Duration

	// Chaos configures fault injection (default off: zero overhead and
	// byte-identical behaviour).
	Chaos chaos.Config
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheResults <= 0 {
		c.CacheResults = 512
	}
	if c.CacheInstances <= 0 {
		c.CacheInstances = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 200_000
	}
	if c.MaxBatches <= 0 {
		c.MaxBatches = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBudgetRatio == 0 {
		c.RetryBudgetRatio = 0.2
	}
	if c.RetryBackoffBase <= 0 {
		c.RetryBackoffBase = 50 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.StaleCap <= 0 {
		c.StaleCap = 64
	}
	if c.RetryAfterCeiling <= 0 {
		c.RetryAfterCeiling = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Server is the HTTP serving layer. Create with New; it is an
// http.Handler ready to mount on any http.Server or test harness.
type Server struct {
	cfg     Config
	eng     *exp.Engine
	reg     *registry
	adm     *admission
	mux     *http.ServeMux
	handler http.Handler // mux, or chaos middleware around it
	start   time.Time

	budget   *chaos.RetryBudget
	breakers *breakerSet
	stale    *exp.Cache[family, staleRecord] // degraded-mode answers
	bodies   *exp.Cache[[32]byte, simJob]    // body index: a simulate body's SHA-256 → its job
	inflight *drainSet
	injector *chaos.Injector // nil unless chaos is enabled

	draining atomic.Bool
}

// New builds a server: one shared engine (pool, LRU result memo and LRU
// instance cache), one metrics registry.
func New(cfg Config) *Server { return newServer(cfg, metrics.NewRegistry(), "") }

// newServer builds a server that registers its metrics into reg, each
// series labeled with label (none when empty).
func newServer(cfg Config, reg *metrics.Registry, label string) *Server {
	cfg = cfg.withDefaults()
	eng := exp.New(cfg.Workers)
	if cfg.Check {
		eng.EnableChecks()
	}
	eng.SetMemoCap(cfg.CacheResults)
	eng.SetInstanceCap(cfg.CacheInstances)
	s := &Server{
		cfg:      cfg,
		eng:      eng,
		reg:      newRegistry(reg, label),
		adm:      newAdmission(cfg.QueueDepth, cfg.CapacityQPS),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		budget:   chaos.NewRetryBudget(cfg.RetryBudgetRatio, 0),
		stale:    exp.NewCache[family, staleRecord](cfg.StaleCap),
		bodies:   exp.NewCache[[32]byte, simJob](cfg.CacheResults),
		inflight: newDrainSet(),
	}
	s.breakers = newBreakerSet(chaos.BreakerConfig{
		Threshold: cfg.BreakerThreshold,
		Cooldown:  cfg.BreakerCooldown.Nanoseconds(),
	}, s.reg)
	s.reg.GaugeFunc("beaconserved_uptime_seconds", func() float64 {
		return time.Since(s.start).Seconds()
	})
	if cfg.CapacityQPS > 0 {
		s.reg.GaugeFunc("beaconserved_capacity_qps", func() float64 {
			return cfg.CapacityQPS
		})
	}
	s.reg.GaugeFunc("beaconserved_sim_runs_total", func() float64 {
		runs, _ := eng.Stats()
		return float64(runs)
	})
	s.reg.GaugeFunc("beaconserved_sim_memo_hits_total", func() float64 {
		_, hits := eng.Stats()
		return float64(hits)
	})
	s.reg.GaugeFunc("beaconserved_cache_evictions_total", func() float64 {
		return float64(eng.Evictions())
	})
	s.reg.GaugeFunc("beaconserved_workers", func() float64 {
		return float64(cfg.Workers)
	})
	s.reg.GaugeFunc("beaconserved_inflight_requests", func() float64 {
		return float64(s.inflight.len())
	})
	s.routes()
	s.handler = s.mux
	if cfg.Chaos.Active() {
		in := chaos.New(cfg.Chaos)
		in.Attach(eng)
		s.injector = in
		s.handler = in.WrapHTTP(s.mux, func(class string) {
			s.reg.Counter(`beaconserved_chaos_injected_total{class="` + class + `"}`).Inc()
		})
	}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// ServeHTTP dispatches to the handler chain (chaos middleware when
// enabled, else the bare mux), counting every request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("beaconserved_requests_total").Inc()
	s.handler.ServeHTTP(w, r)
}

// Engine exposes the shared experiment engine (tests compare its stats).
func (s *Server) Engine() *exp.Engine { return s.eng }

// Injector exposes the chaos injector (nil when chaos is off); tests
// disarm it to let a faulted server recover on cue.
func (s *Server) Injector() *chaos.Injector { return s.injector }

// BeginDrain flips the server into draining: /healthz turns 503 so load
// balancers stop routing here, and new heavy work is refused with 503
// while in-flight requests run to completion. The HTTP layer
// (http.Server.Shutdown) then waits for active connections; if they
// outlive Config.DrainTimeout the cmd layer calls CancelInflight.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// CancelInflight aborts every tracked in-flight heavy request through
// its per-request cancellation — the same path a disconnected client
// takes, observed mid-kernel — and returns how many were cancelled.
// This is the drain hard-deadline: stragglers stop burning CPU and
// their connections close, unblocking http.Server.Shutdown.
func (s *Server) CancelInflight() int { return s.inflight.cancelAll() }
