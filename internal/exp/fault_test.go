package exp

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/platform"
)

func TestIsTransient(t *testing.T) {
	if !IsTransient(ErrTransient) {
		t.Fatal("ErrTransient not transient")
	}
	if !IsTransient(fmt.Errorf("chaos: injected (attempt 2): %w", ErrTransient)) {
		t.Fatal("wrapped transient not recognized")
	}
	if IsTransient(errors.New("deterministic failure")) || IsTransient(nil) {
		t.Fatal("non-transient misclassified")
	}
}

// TestFaultHookTransientDoesNotPoisonMemo is the no-poisoning law: a
// transient injected failure must be returned to its caller but NOT
// cached, so the next request for the same key re-runs and succeeds.
// Deterministic errors stay cached (retrying cannot change them).
func TestFaultHookTransientDoesNotPoisonMemo(t *testing.T) {
	e := New(2)
	inst := testInstance(t)
	cfg := config.Default()
	e.simFn = func(context.Context, platform.Kind, config.Config, *dataset.Instance, int, int) (*platform.Result, error) {
		return &platform.Result{Platform: "ok"}, nil
	}
	calls := 0
	e.SetFaultHook(func(key SimKey, attempt int) error {
		calls++
		if calls == 1 {
			return fmt.Errorf("chaos: injected: %w", ErrTransient)
		}
		return nil
	})

	if _, err := e.SimulateCtx(context.Background(), platform.BG2, cfg, inst, 2, 0); !IsTransient(err) {
		t.Fatalf("first call err = %v, want injected transient", err)
	}
	r, err := e.SimulateCtx(context.Background(), platform.BG2, cfg, inst, 2, 0)
	if err != nil || r == nil || r.Platform != "ok" {
		t.Fatalf("retry after transient: r=%+v err=%v (memo poisoned?)", r, err)
	}
	if calls != 2 {
		t.Fatalf("hook ran %d times, want 2 (transient entry must have been deleted)", calls)
	}
}

func TestFaultHookDeterministicErrorStaysCached(t *testing.T) {
	e := New(2)
	inst := testInstance(t)
	cfg := config.Default()
	hard := errors.New("deterministic simulation failure")
	leafCalls := 0
	e.simFn = func(context.Context, platform.Kind, config.Config, *dataset.Instance, int, int) (*platform.Result, error) {
		leafCalls++
		return nil, hard
	}
	for i := 0; i < 2; i++ {
		if _, err := e.SimulateCtx(context.Background(), platform.BG2, cfg, inst, 2, 0); !errors.Is(err, hard) {
			t.Fatalf("call %d err = %v, want the deterministic error", i, err)
		}
	}
	if leafCalls != 1 {
		t.Fatalf("leaf ran %d times, want 1 (hard errors are memoized)", leafCalls)
	}
}

// TestSimulateFreshCtxBypassesMemo: hedged duplicates must not dedupe
// into the very in-flight entry they are racing — a fresh run always
// executes the leaf, yet yields the same deterministic result.
func TestSimulateFreshCtxBypassesMemo(t *testing.T) {
	e := New(2)
	inst := testInstance(t)
	cfg := config.Default()

	r1, err := e.SimulateCtx(context.Background(), platform.BG2, cfg, inst, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	runsBefore, _ := e.Stats()
	r2, err := e.SimulateFreshCtx(context.Background(), Key(platform.BG2, cfg, inst, 2, 0), &cfg, inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	runsAfter, _ := e.Stats()
	if runsAfter != runsBefore+1 {
		t.Fatalf("fresh run deduped into the memo (runs %d -> %d)", runsBefore, runsAfter)
	}
	if r1 == r2.Result {
		t.Fatal("fresh run returned the cached pointer")
	}
	if r1.Elapsed != r2.Result.Elapsed || r1.FlashReads != r2.Result.FlashReads {
		t.Fatalf("fresh rerun diverged from the memoized run: %v/%v vs %v/%v",
			r1.Elapsed, r1.FlashReads, r2.Result.Elapsed, r2.Result.FlashReads)
	}
	// The hook sees the hedge's attempt number, letting injectors key
	// decisions off it.
	var sawAttempt int
	e.SetFaultHook(func(_ SimKey, attempt int) error {
		sawAttempt = attempt
		return nil
	})
	if _, err := e.SimulateFreshCtx(context.Background(), Key(platform.BG1, cfg, inst, 2, 0), &cfg, inst, 3); err != nil {
		t.Fatal(err)
	}
	if sawAttempt != 3 {
		t.Fatalf("hook saw attempt %d, want 3", sawAttempt)
	}
}

func TestEvictOldest(t *testing.T) {
	e := New(2)
	e.SetMemoCap(16)
	inst := testInstance(t)
	cfg := config.Default()
	e.simFn = func(_ context.Context, k platform.Kind, _ config.Config, _ *dataset.Instance, _, _ int) (*platform.Result, error) {
		return &platform.Result{Platform: k.String()}, nil
	}
	kinds := []platform.Kind{platform.CC, platform.BG1, platform.BG2, platform.BGSP}
	for _, k := range kinds {
		if _, err := e.Simulate(k, cfg, inst, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.EvictOldest(2); n != 2 {
		t.Fatalf("EvictOldest(2) = %d", n)
	}
	// LRU order: CC and BG1 (oldest) are gone, BG2 and BGSP survive.
	if e.Cached(Key(platform.CC, cfg, inst, 2, 0)) || e.Cached(Key(platform.BG1, cfg, inst, 2, 0)) {
		t.Fatal("oldest entries survived the eviction storm")
	}
	if !e.Cached(Key(platform.BG2, cfg, inst, 2, 0)) || !e.Cached(Key(platform.BGSP, cfg, inst, 2, 0)) {
		t.Fatal("newest entries were evicted")
	}
	// Asking for more than resident drops what's there and stops.
	if n := e.EvictOldest(10); n != 2 {
		t.Fatalf("EvictOldest(10) with 2 resident = %d", n)
	}
	// Unbounded memo (no cap): eviction storms are a no-op by design —
	// batch runs must never lose results to chaos wiring.
	u := New(2)
	u.simFn = e.simFn
	if _, err := u.Simulate(platform.CC, cfg, inst, 2, 0); err != nil {
		t.Fatal(err)
	}
	if n := u.EvictOldest(5); n != 0 {
		t.Fatalf("uncapped engine evicted %d entries", n)
	}
}
