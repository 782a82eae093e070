// Package exp is the parallel experiment engine: it fans independent
// platform simulations out across CPU cores while keeping every
// experiment's rendered output byte-identical to a sequential run.
//
// The design exploits the simulation methodology this repository
// inherits from SimpleSSD-style simulators: each platform.Simulate call
// is a self-contained, deterministic event loop over private state (its
// own sim.Kernel, RNGs, meters) that only reads the shared dataset
// instance. The full evaluation is therefore embarrassingly parallel
// across runs even though each kernel is strictly serial inside.
//
// Two mechanisms compose:
//
//   - a worker-limited scheduler (ThrottleCtx / Simulate): heavy leaf
//     work holds one of W slots, where W defaults to
//     runtime.GOMAXPROCS(0). Structured fan-out (Map) deliberately does
//     NOT hold a slot, so nested fan-outs — RunAll over experiments, an
//     experiment over its simulations — never deadlock and only leaves
//     compete for cores;
//   - two Caches: simulation results (Memos) keyed by (platform kind,
//     dataset name, materialized node count, config digest, batches,
//     timeline points), and dataset instances keyed by (name, nodes,
//     page size, seed), so each distinct simulation and instance is
//     computed at most once per resident entry, no matter how many
//     figures ask for it. Determinism makes a cached result
//     indistinguishable from a re-run.
//
// Determinism contract: callers collect results first (Map preserves
// input order) and format afterwards; with that discipline, output is
// byte-identical for any worker count, including 1.
package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/platform"
)

// ErrTransient marks failures that say nothing about the simulation
// itself — injected chaos faults, stub outages in tests. The engine
// never memoizes an error carrying it (the key is released and deduped
// waiters retry, exactly like a cancellation), and the serving layer's
// retry machinery treats it as retryable where a deterministic
// simulation error is not.
var ErrTransient = errors.New("transient failure")

// IsTransient reports whether err is (or wraps) a transient failure.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// FaultHook is the engine-boundary chaos surface: it is consulted once
// per leaf attempt, while the attempt holds its worker slot, just
// before the simulation runs. A hook may stall (worker-stall
// injection), evict memo entries (eviction storms), or return an error
// — wrap ErrTransient to keep the failure out of the memo. attempt is 0
// for the primary run and >0 for hedged or retried duplicates.
type FaultHook func(key SimKey, attempt int) error

// Engine schedules simulations across a bounded worker pool and memoizes
// their results and the dataset instances they read. It is safe for
// concurrent use. The zero value is not usable; call New.
type Engine struct {
	sem chan struct{} // one token per concurrently running leaf

	// hook, when set, injects engine-boundary faults (see FaultHook).
	hook FaultHook

	// simFn is the simulation leaf; platform.SimulateCtx in
	// production, replaceable in tests (e.g. to exercise panic
	// recovery).
	simFn func(context.Context, platform.Kind, config.Config, *dataset.Instance, int, int) (*platform.Result, error)

	memo   *Cache[SimKey, *Memo]
	insts  *Cache[instKey, *dataset.Instance]
	noMemo bool          // bypass the result memo (forced full resimulation)
	runs   atomic.Uint64 // simulation leaves executed
}

// instKey identifies one materialized dataset instance: every input
// dataset.Materialize depends on, so distinct scales, page sizes and
// seeds never alias.
type instKey struct {
	name     string
	nodes    int
	pageSize int
	seed     uint64
}

// New returns an engine running at most workers leaves concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		sem:   make(chan struct{}, workers),
		simFn: platform.SimulateCtx,
		memo:  NewCache[SimKey, *Memo](0),
		insts: NewCache[instKey, *dataset.Instance](0),
	}
}

// SetMemoCap bounds the memo to the n most recently used completed
// results, evicting least-recently-used entries past the cap — what a
// long-lived daemon needs where a batch run wants the unbounded
// default. In-flight entries are never evicted (waiters are parked on
// them). n <= 0 restores unbounded. Call before the first Simulate.
func (e *Engine) SetMemoCap(n int) { e.memo.SetCap(n) }

// SetInstanceCap bounds the instance cache to the n most recently used
// materialized instances, the daemon's dominant memory cost. n <= 0
// restores unbounded. Call before the first Instance.
func (e *Engine) SetInstanceCap(n int) { e.insts.SetCap(n) }

// Workers returns the configured parallel width.
func (e *Engine) Workers() int { return cap(e.sem) }

// SetFaultHook installs (or clears, with nil) the engine-boundary fault
// hook; the chaos harness uses it to inject worker stalls, eviction
// storms, and transient failures. Call before the first Simulate.
func (e *Engine) SetFaultHook(h FaultHook) { e.hook = h }

// EvictOldest drops up to n least-recently-used completed memo entries
// and reports how many were dropped. It is a no-op on an unbounded memo
// (batch runs depend on every result staying resident) and never
// touches in-flight entries. The chaos harness uses it to model
// eviction storms against a capped daemon memo.
func (e *Engine) EvictOldest(n int) int { return e.memo.EvictOldest(n) }

// EnableChecks routes every subsequent simulation through the invariant
// checker (platform.SimulateCheckedCtx): each leaf run is verified against
// the conservation and sanity invariants and fails with a
// named-invariant diagnostic if any breaks. Checked results are
// identical to unchecked ones — checking only observes — so the memo
// key is unchanged. Call before the first Simulate.
func (e *Engine) EnableChecks() { e.simFn = platform.SimulateCheckedCtx }

// DisableMemo forces every Simulate call to run a fresh simulation,
// bypassing the result memo. This is the -full-resim escape hatch:
// memoized sweeps are byte-identical to full resimulation by
// construction, and this switch lets a dedicated test (and a suspicious
// user) prove it. Instances stay cached: materialization is
// deterministic in its key. Call before the first Simulate.
func (e *Engine) DisableMemo() { e.noMemo = true }

// Stats returns the number of simulations executed and the number served
// from the memo cache.
func (e *Engine) Stats() (runs, hits uint64) {
	_, hits = e.memo.Stats()
	return e.runs.Load(), hits
}

// Evictions returns how many completed memo entries the LRU cap and
// EvictOldest have dropped (always 0 with the unbounded default).
func (e *Engine) Evictions() uint64 { return e.memo.Evictions() }

// Cached reports whether key's result is already completed in the memo,
// i.e. a Simulate for it would return without running or waiting. It
// counts nothing; a caller that serves the result uses Lookup instead.
func (e *Engine) Cached(key SimKey) bool { return e.memo.Cached(key) }

// Lookup returns key's memo entry if it is resident and completed,
// counting a memo hit in Stats. It never runs or waits: a miss (absent,
// in flight, or a cached error) reports ok = false, and the caller
// decides how to compute it — a serving layer labels the response from
// this one lookup, so the label says what actually happened. With the
// memo disabled every lookup misses.
func (e *Engine) Lookup(key SimKey) (m *Memo, ok bool) {
	if e.noMemo {
		return nil, false
	}
	return e.memo.Get(key)
}

// Instances reports how many materialized instances are resident and
// how many cache misses started a materialization.
func (e *Engine) Instances() (resident int, materialized uint64) {
	runs, _ := e.insts.Stats()
	return e.insts.Len(), runs
}

// ThrottleCtx runs fn while holding one worker slot and returns its
// error. Use it around heavy leaf work that is not a platform
// simulation (dataset materialization, contention microbenchmarks,
// inflation sampling) so the pool bounds total CPU oversubscription. If
// ctx expires before a slot frees up, fn never runs and ctx.Err() is
// returned; once fn starts it runs to completion — pass ctx into fn
// itself if the work can be abandoned midway. Do not wrap calls that
// themselves wait on other throttled work: waiting must never hold a
// slot.
func (e *Engine) ThrottleCtx(ctx context.Context, fn func() error) error {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-e.sem }()
	return fn()
}

// Instance returns the dataset instance for (name, nodes, pageSize,
// seed), materializing it on first use. Concurrent requests for one
// instance materialize once; materialization holds a worker slot, so
// it competes with simulations for CPU rather than running alongside
// them, and the slot wait honours ctx. The returned instance is shared
// and must be treated as read-only.
func (e *Engine) Instance(ctx context.Context, name string, nodes, pageSize int, seed uint64) (*dataset.Instance, error) {
	d, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return e.insts.Do(ctx, instKey{name, nodes, pageSize, seed}, func() (inst *dataset.Instance, err error) {
		err = e.ThrottleCtx(ctx, func() (err error) {
			inst, err = dataset.Materialize(d, nodes, pageSize, seed)
			return err
		})
		return inst, err
	})
}

// SimKey identifies one memoizable simulation.
type SimKey struct {
	Kind     platform.Kind
	Dataset  string
	Nodes    int    // materialized node count of the instance
	Digest   uint64 // ConfigDigest of the full config
	Batches  int
	Timeline int
}

// Key builds the cache key for a simulation request.
func Key(kind platform.Kind, cfg config.Config, inst *dataset.Instance, batches, timeline int) SimKey {
	return SimKey{
		Kind:     kind,
		Dataset:  inst.Desc.Name,
		Nodes:    inst.Graph.NumNodes(),
		Digest:   ConfigDigest(&cfg),
		Batches:  batches,
		Timeline: timeline,
	}
}

// Memo is one simulation's memo entry: its result and, made on first
// use, the result's JSON encoding. Both stay resident together and are
// evicted together, so a key has one entry and one cap. A Memo is
// shared between all callers and must be treated as read-only.
type Memo struct {
	Result *platform.Result

	once sync.Once
	enc  []byte
	err  error
}

// JSON returns the result as json.Encoder with HTML escaping off writes
// it, without the trailing newline. The first call encodes; every later
// call returns the same bytes, which the caller must not modify.
func (m *Memo) JSON() ([]byte, error) {
	m.once.Do(func() { m.enc, m.err = encodeResult(m.Result) })
	return m.enc, m.err
}

// encodeResult is Memo.JSON's encoder, trimming the bytes to their
// exact length for a long stay in the memo. It is a variable so a test
// can count encodings.
var encodeResult = func(res *platform.Result) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return bytes.Clone(bytes.TrimSuffix(b.Bytes(), []byte("\n"))), nil
}

// Simulate runs (or returns the memoized result of) one platform
// simulation, holding a worker slot only while actually simulating.
// Concurrent requests for the same key deduplicate: one caller runs, the
// rest wait on its completion without consuming slots. The returned
// Result is shared between all callers and must be treated as read-only.
func (e *Engine) Simulate(kind platform.Kind, cfg config.Config, inst *dataset.Instance, batches, timeline int) (*platform.Result, error) {
	return e.SimulateCtx(context.Background(), kind, cfg, inst, batches, timeline)
}

// SimulateCtx is Simulate bound to ctx. Cancellation is observed at
// every blocking point: waiting for a worker slot, waiting on a deduped
// in-flight run, and inside the simulation's own event loop (via
// platform.SimulateCtx) — so an abandoned request frees its pool slot
// instead of running to completion. A cancelled run is removed from the
// memo rather than cached: deduped waiters with live contexts re-run
// the key, and future requests are unaffected.
func (e *Engine) SimulateCtx(ctx context.Context, kind platform.Kind, cfg config.Config, inst *dataset.Instance, batches, timeline int) (*platform.Result, error) {
	if inst == nil {
		return nil, fmt.Errorf("exp: nil dataset instance")
	}
	m, err := e.SimulateKeyCtx(ctx, Key(kind, cfg, inst, batches, timeline), &cfg, inst)
	if err != nil {
		return nil, err
	}
	return m.Result, nil
}

// SimulateKeyCtx is SimulateCtx returning the memo entry, for a caller
// that made key once, when it validated the request. The key names the
// platform, batches and timeline to run; cfg and inst must be what its
// digest and dataset describe.
func (e *Engine) SimulateKeyCtx(ctx context.Context, key SimKey, cfg *config.Config, inst *dataset.Instance) (*Memo, error) {
	if inst == nil {
		return nil, fmt.Errorf("exp: nil dataset instance")
	}
	if e.noMemo {
		return e.leaf(ctx, key, cfg, inst, 0)
	}
	return e.memo.Do(ctx, key, func() (*Memo, error) {
		return e.leaf(ctx, key, cfg, inst, 0)
	})
}

// SimulateFreshCtx runs one simulation without consulting or updating
// the result memo, while still holding a worker slot. It exists for
// hedged duplicates: a hedge of an in-flight key must not dedupe into
// the very attempt it is racing, and its result, in a Memo that is
// never stored, must not fight the primary's over the memo slot.
// attempt is forwarded to the fault hook so injection schedules can
// tell primaries from hedges.
func (e *Engine) SimulateFreshCtx(ctx context.Context, key SimKey, cfg *config.Config, inst *dataset.Instance, attempt int) (*Memo, error) {
	if inst == nil {
		return nil, fmt.Errorf("exp: nil dataset instance")
	}
	return e.leaf(ctx, key, cfg, inst, attempt)
}

// leaf runs key's simulation under a worker slot, after consulting the
// fault hook with the key, and wraps its result in a Memo.
func (e *Engine) leaf(ctx context.Context, key SimKey, cfg *config.Config, inst *dataset.Instance, attempt int) (*Memo, error) {
	var res *platform.Result
	err := e.ThrottleCtx(ctx, func() (err error) {
		if e.hook != nil {
			if err = e.hook(key, attempt); err != nil {
				return err
			}
		}
		e.runs.Add(1)
		res, err = e.simFn(ctx, key.Kind, *cfg, inst, key.Batches, key.Timeline)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Memo{Result: res}, nil
}

// Map applies f to every item concurrently and returns the results in
// input order, which is what makes downstream formatting deterministic.
// Map itself is unbounded — parallelism is limited where the work is,
// inside Simulate/ThrottleCtx leaves — so Maps nest freely. If any call
// fails, the error of the lowest-indexed failure is returned (again for
// determinism); the result slice is still fully populated with whatever
// succeeded.
func Map[T, R any](items []T, f func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	wg.Add(len(items))
	for i := range items {
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = f(items[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Go runs every job concurrently and waits for all of them, returning
// the lowest-indexed error. Like Map, it does not hold worker slots.
func Go(jobs ...func() error) error {
	_, err := Map(jobs, func(j func() error) (struct{}, error) {
		return struct{}{}, j()
	})
	return err
}
