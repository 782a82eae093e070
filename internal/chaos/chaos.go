// Package chaos is the deterministic fault-injection substrate: a
// seeded injector that perturbs the system at three boundaries —
// device (die/channel outages and uncorrectable storms, expressed
// through the existing config.Fault model), engine (worker stalls,
// memo eviction storms, transient run failures via exp.FaultHook), and
// HTTP (request drops, latency spikes, truncated bodies via
// middleware) — plus the resilience primitives the serving layer
// builds on top of it (Backoff, Breaker, RetryBudget), plus the seeded
// decision Stream that loadgen's virtual-time service center draws the
// -exp chaos sweep's faults from.
//
// Determinism contract: every injection decision is a pure function of
// (injector seed, boundary site, request key, per-key attempt
// sequence). No wall clock, no shared mutable RNG stream — so the same
// seed yields byte-identical fault schedules at any -parallel width
// and across runs, which is what lets CI assert on chaos output. All
// injection is default-off: a nil or disabled Injector adds one atomic
// load per decision point and changes no output byte.
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"beacongnn/internal/xrand"
)

// Injection sites. Each boundary draws from its own site constant so
// the decision streams are independent: turning the HTTP drop rate up
// never changes which engine runs fail.
const (
	siteEngineFail  uint64 = 0x45464149 // "EFAI"
	siteEngineStall uint64 = 0x4553544c
	siteEngineEvict uint64 = 0x45455649
	siteHTTPDrop    uint64 = 0x48445250
	siteHTTPLatency uint64 = 0x484c4154
	siteHTTPTrunc   uint64 = 0x48545243
)

// Config controls the injector. The zero value disables everything:
// injection is on exactly when some rate is positive (Active). Rates
// are probabilities in [0, 1] evaluated independently per decision
// point.
type Config struct {
	Seed uint64 // injection schedule seed; same seed ⇒ same schedule

	// Engine boundary (exp.FaultHook).
	EngineFailRate  float64       // probability a leaf run fails with a transient error
	EngineFailAfter uint64        // grace period: first N runs are immune (lets priming succeed)
	EngineStallRate float64       // probability a leaf run stalls while holding its worker slot
	EngineStall     time.Duration // stall duration (wall clock; default 50ms)
	EvictRate       float64       // probability a leaf run triggers a memo eviction storm
	EvictBurst      int           // entries dropped per storm (default 4)

	// HTTP boundary (middleware).
	HTTPDropRate    float64       // probability a request is refused with 503 before handling
	HTTPLatencyRate float64       // probability a request is delayed before handling
	HTTPLatency     time.Duration // injected delay (default 100ms)
	HTTPTruncRate   float64       // probability a response body is cut mid-stream
}

// rate reports whether p is a valid probability.
func rate(name string, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("chaos: %s %g outside [0, 1]", name, p)
	}
	return nil
}

// Validate rejects malformed configurations and fills defaults for
// duration/burst fields left zero while their rate is set.
func (c *Config) Validate() error {
	for _, r := range []struct {
		name string
		p    float64
	}{
		{"engine-fail-rate", c.EngineFailRate},
		{"engine-stall-rate", c.EngineStallRate},
		{"evict-rate", c.EvictRate},
		{"http-drop-rate", c.HTTPDropRate},
		{"http-latency-rate", c.HTTPLatencyRate},
		{"http-trunc-rate", c.HTTPTruncRate},
	} {
		if err := rate(r.name, r.p); err != nil {
			return err
		}
	}
	if c.EngineStall < 0 || c.HTTPLatency < 0 {
		return fmt.Errorf("chaos: negative injected delay")
	}
	if c.EngineStall == 0 {
		c.EngineStall = 50 * time.Millisecond
	}
	if c.HTTPLatency == 0 {
		c.HTTPLatency = 100 * time.Millisecond
	}
	if c.EvictBurst <= 0 {
		c.EvictBurst = 4
	}
	return nil
}

// Active reports whether any injection can fire.
func (c *Config) Active() bool {
	return c.EngineFailRate > 0 || c.EngineStallRate > 0 || c.EvictRate > 0 ||
		c.HTTPDropRate > 0 || c.HTTPLatencyRate > 0 || c.HTTPTruncRate > 0
}

// Stats counts injections by class. Read with the accessor; fields are
// atomics so hot paths never take a lock.
type Stats struct {
	EngineFails  atomic.Uint64
	EngineStalls atomic.Uint64
	Evictions    atomic.Uint64
	HTTPDrops    atomic.Uint64
	HTTPDelays   atomic.Uint64
	HTTPTruncs   atomic.Uint64
}

// Injector draws deterministic injection decisions. Safe for
// concurrent use; a nil *Injector injects nothing.
type Injector struct {
	cfg      Config
	disarmed atomic.Bool   // set by Disarm
	runs     atomic.Uint64 // engine runs observed, for EngineFailAfter grace

	mu     sync.Mutex
	stream Stream // guarded by mu

	stats Stats
}

// New builds an armed injector from cfg (which must have been
// Validated).
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, stream: *NewStream(cfg.Seed)}
}

// Disarm stops all future injections without tearing down wiring —
// tests use it to let a faulted system recover (breakers close, probes
// succeed) on demand.
func (in *Injector) Disarm() { in.disarmed.Store(true) }

// Stats exposes the injection counters.
func (in *Injector) Stats() *Stats { return &in.stats }

// JitterU returns a deterministic jitter coordinate for (key, n): a
// uniform in [0, 1) that is a pure function of its arguments. The
// serving layer feeds it to Backoff.Delay so a request's retry
// schedule is reproducible while distinct keys decorrelate.
func JitterU(key, n uint64) float64 {
	h := xrand.SplitMix64(key ^ n*0xd6e8feb86659fd93 ^ 0x4a495454)
	return float64(h>>11) / (1 << 53)
}

// draw is the injector's decision stream, serialized for concurrent
// callers. Concurrent callers for different keys never perturb each
// other's draws, which is the whole determinism story: an injection
// schedule is a property of the request, not of thread interleaving.
func (in *Injector) draw(site, key uint64) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stream.draw(site, key)
}

// Stream is a seeded decision stream: each draw is a uniform in [0, 1)
// that depends only on (seed, site, key, n-th draw at this site/key).
// Not safe for concurrent use; a single-threaded virtual-time loop owns
// one outright.
type Stream struct {
	seed uint64
	seq  map[uint64]uint64 // per-(site^key) decision counter
}

// NewStream returns the decision stream for seed.
func NewStream(seed uint64) *Stream {
	return &Stream{seed: seed, seq: make(map[uint64]uint64)}
}

func (s *Stream) draw(site, key uint64) float64 {
	slot := xrand.SplitMix64(site ^ key)
	n := s.seq[slot]
	s.seq[slot] = n + 1
	h := xrand.SplitMix64(s.seed ^ slot ^ (n * 0xd6e8feb86659fd93))
	return float64(h>>11) / (1 << 53)
}

// Fail, Stall and Drop draw from the engine-fail, engine-stall and
// HTTP-drop sites; Jitter draws backoff jitter from the HTTP-latency
// site, so each decision class has its own independent stream.
func (s *Stream) Fail(key uint64) float64   { return s.draw(siteEngineFail, key) }
func (s *Stream) Stall(key uint64) float64  { return s.draw(siteEngineStall, key) }
func (s *Stream) Drop(key uint64) float64   { return s.draw(siteHTTPDrop, key) }
func (s *Stream) Jitter(key uint64) float64 { return s.draw(siteHTTPLatency, key) }
