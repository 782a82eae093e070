package exp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/platform"
)

func testInstance(t testing.TB) *dataset.Instance {
	t.Helper()
	d, err := dataset.ByName("amazon")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	inst, err := dataset.Materialize(d, 2000, cfg.Flash.PageSize, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestConfigDigestDistinguishesFields visits every leaf field of
// config.Config by reflection, changes it, and requires the digest to
// change: a field the digest missed would let two configs share a memo
// entry.
func TestConfigDigestDistinguishesFields(t *testing.T) {
	base := config.Default()
	d0 := ConfigDigest(&base)
	if d0 != ConfigDigest(&base) {
		t.Fatal("digest not stable")
	}
	leaves := 0
	var visit func(path string, v reflect.Value)
	visit = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				visit(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		}
		leaves++
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float()*2 + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("%s: test cannot mutate kind %v", path, v.Kind())
		}
		if ConfigDigest(&base) == d0 {
			t.Errorf("changing %s did not change the digest", path)
		}
		v.Set(old)
	}
	visit("Config", reflect.ValueOf(&base).Elem())
	if ConfigDigest(&base) != d0 {
		t.Fatal("restoring every field did not restore the digest")
	}
	if leaves != len(digestPlan) {
		t.Fatalf("config has %d leaves, the digest plan %d", leaves, len(digestPlan))
	}

	// Length prefixes keep the boundary between the two dead-unit lists:
	// the same numbers split differently are different configs.
	a, b := base, base
	a.Fault.DeadDies, a.Fault.DeadChannels = []int{1, 2}, []int{3}
	b.Fault.DeadDies, b.Fault.DeadChannels = []int{1}, []int{2, 3}
	if ConfigDigest(&a) == ConfigDigest(&b) {
		t.Error("moving a dead unit between the lists did not change the digest")
	}
}

// TestCompileDigestRejectsUnhashableKinds checks that a field kind the
// digest cannot hash — a map, pointer, interface or slice of structs —
// panics when the plan is compiled instead of being skipped.
func TestCompileDigestRejectsUnhashableKinds(t *testing.T) {
	for _, v := range []any{
		struct{ M map[string]int }{},
		struct{ P *int }{},
		struct{ I any }{},
		struct{ S []struct{ X int } }{},
		struct{ F float32 }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: compiling the digest plan did not panic", v)
				}
			}()
			compileDigest(reflect.TypeOf(v), 0, nil)
		}()
	}
}

// TestConfigDigestEmptyDeadListsAreNil checks that an empty dead-unit
// list digests like an absent one: both mean no unit is dead.
func TestConfigDigestEmptyDeadListsAreNil(t *testing.T) {
	base := config.Default()
	empty := base
	empty.Fault.DeadDies, empty.Fault.DeadChannels = []int{}, []int{}
	if ConfigDigest(&empty) != ConfigDigest(&base) {
		t.Fatal("empty and nil dead-unit lists digest differently")
	}
}

func TestSimulateMemoizes(t *testing.T) {
	e := New(4)
	inst := testInstance(t)
	cfg := config.Default()

	r1, err := e.Simulate(platform.BG2, cfg, inst, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Simulate(platform.BG2, cfg, inst, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second identical request was not served from the cache")
	}
	runs, hits := e.Stats()
	if runs != 1 || hits != 1 {
		t.Fatalf("runs=%d hits=%d, want 1/1", runs, hits)
	}
	// A different key must miss.
	if _, err := e.Simulate(platform.BG1, cfg, inst, 2, 0); err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	if _, err := e.Simulate(platform.BG2, cfg, inst, 2, 0); err != nil {
		t.Fatal(err)
	}
	runs, _ = e.Stats()
	if runs != 3 {
		t.Fatalf("runs=%d, want 3 distinct simulations", runs)
	}
}

func TestSimulateConcurrentDedup(t *testing.T) {
	e := New(8)
	inst := testInstance(t)
	cfg := config.Default()
	const callers = 16
	results := make([]*platform.Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			r, err := e.Simulate(platform.BGSP, cfg, inst, 2, 0)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	runs, hits := e.Stats()
	if runs != 1 {
		t.Fatalf("runs=%d, want 1 (concurrent requests must dedupe)", runs)
	}
	if hits != callers-1 {
		t.Fatalf("hits=%d, want %d", hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers got different result pointers")
		}
	}
}

func TestSimulatePanicUnblocksDedupedWaiters(t *testing.T) {
	// Regression: a panic in the simulation leaf skipped close(ent.done),
	// deadlocking every deduped waiter on the same key forever. The close
	// now runs in a defer and the panic becomes the entry's error.
	e := New(2)
	started := make(chan struct{})
	release := make(chan struct{})
	e.simFn = func(context.Context, platform.Kind, config.Config, *dataset.Instance, int, int) (*platform.Result, error) {
		close(started)
		<-release // hold the leaf until a waiter has deduped onto the key
		panic("boom in leaf")
	}
	inst := testInstance(t)
	cfg := config.Default()

	runnerErr := make(chan error, 1)
	go func() {
		_, err := e.Simulate(platform.BG2, cfg, inst, 2, 0)
		runnerErr <- err
	}()
	<-started

	waiterErr := make(chan error, 1)
	go func() {
		_, err := e.Simulate(platform.BG2, cfg, inst, 2, 0)
		waiterErr <- err
	}()
	// Let the waiter reach the memo before the leaf panics. Stats() holds
	// the engine lock, so once hits reflects the waiter it is parked on
	// ent.done.
	for {
		if _, hits := e.Stats(); hits == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	timeout := time.After(5 * time.Second)
	for _, ch := range []chan error{runnerErr, waiterErr} {
		select {
		case err := <-ch:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("err = %v, want stored panic error", err)
			}
		case <-timeout:
			t.Fatal("caller deadlocked after a panicking simulation leaf")
		}
	}
	// The worker slot must have been released too: the engine stays usable.
	done := make(chan struct{})
	go func() {
		_ = e.ThrottleCtx(context.Background(), func() error { return nil })
		_ = e.ThrottleCtx(context.Background(), func() error { return nil })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker slot leaked by the panicking leaf")
	}
}

func TestThrottleBoundsConcurrency(t *testing.T) {
	const width = 3
	e := New(width)
	var active, peak, over int32
	err := Go(func() error {
		_, err := Map(make([]int, 64), func(int) (struct{}, error) {
			return struct{}{}, e.ThrottleCtx(context.Background(), func() error {
				n := atomic.AddInt32(&active, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
						break
					}
				}
				if n > width {
					atomic.AddInt32(&over, 1)
				}
				atomic.AddInt32(&active, -1)
				return nil
			})
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if over != 0 {
		t.Fatalf("observed %d over-width executions (peak %d > %d)", over, peak, width)
	}
}

func TestMapPreservesOrderAndLowestError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	out, err := Map(items, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	e3 := errors.New("three")
	e5 := errors.New("five")
	_, err = Map(items, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, e3
		case 5:
			return 0, e5
		}
		return i, nil
	})
	if !errors.Is(err, e3) {
		t.Fatalf("err = %v, want lowest-indexed failure %v", err, e3)
	}
}

func TestSimulateCtxCancelStopsRunningLeaf(t *testing.T) {
	// Regression for the pre-context engine: a cancelled request kept its
	// worker slot busy until the simulation ran to completion. Now the
	// kernel's cancel poll aborts the event loop mid-run, the slot frees
	// promptly, and the entry is NOT cached — a later request re-runs.
	e := New(1)
	inst := testInstance(t)
	cfg := config.Default()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		// Large enough that the run is comfortably in flight when cancel
		// lands (a full run takes well over the test's poll interval).
		_, err := e.SimulateCtx(ctx, platform.BG2, cfg, inst, 64, 0)
		errCh <- err
	}()
	// Wait until the leaf has actually started (runs counts executions).
	for {
		if runs, _ := e.Stats(); runs == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled simulation did not return; leaf ran to completion holding the slot")
	}
	// The abandoned key must not be cached: a fresh request re-runs it.
	if _, err := e.Simulate(platform.BG2, cfg, inst, 64, 0); err != nil {
		t.Fatal(err)
	}
	if runs, _ := e.Stats(); runs != 2 {
		t.Fatalf("runs = %d, want 2 (cancelled run must not populate the memo)", runs)
	}
}

func TestSimulateCtxCancelWhileWaitingForSlot(t *testing.T) {
	e := New(1)
	inst := testInstance(t)
	cfg := config.Default()
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	e.simFn = func(_ context.Context, kind platform.Kind, _ config.Config, _ *dataset.Instance, _, _ int) (*platform.Result, error) {
		started <- struct{}{}
		if kind == platform.BG2 {
			<-block
		}
		return &platform.Result{}, nil
	}
	go e.Simulate(platform.BG2, cfg, inst, 2, 0) // occupies the only slot
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.SimulateCtx(ctx, platform.BG1, cfg, inst, 2, 0)
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the second request park on the slot
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slot wait ignored cancellation")
	}
	close(block)
	// The abandoned key must be claimable again.
	if _, err := e.Simulate(platform.BG1, cfg, inst, 2, 0); err != nil {
		t.Fatal(err)
	}
}

// TestLookupCountsOneHit checks that Lookup answers a resident key with
// the memoized result and one counted hit, and a missing key with
// neither a hit nor a run; with the memo disabled every lookup misses.
func TestLookupCountsOneHit(t *testing.T) {
	e := New(1)
	inst := testInstance(t)
	cfg := config.Default()
	key := Key(platform.BG2, cfg, inst, 2, 0)
	if _, ok := e.Lookup(key); ok {
		t.Fatal("Lookup hit before any simulation")
	}
	r1, err := e.SimulateKeyCtx(context.Background(), key, &cfg, inst)
	if err != nil {
		t.Fatal(err)
	}
	r2, ok := e.Lookup(key)
	if !ok || r2 != r1 {
		t.Fatalf("Lookup = %p, %v; want the memoized %p", r2, ok, r1)
	}
	if runs, hits := e.Stats(); runs != 1 || hits != 1 {
		t.Fatalf("Stats = %d runs, %d hits; want 1, 1", runs, hits)
	}

	off := New(1)
	off.DisableMemo()
	if _, err := off.SimulateKeyCtx(context.Background(), key, &cfg, inst); err != nil {
		t.Fatal(err)
	}
	if _, ok := off.Lookup(key); ok {
		t.Fatal("Lookup hit with the memo disabled")
	}
}

func TestSimulateCtxWaiterOutlivesCancelledRunner(t *testing.T) {
	// A deduped waiter with a live context must not inherit the runner's
	// cancellation: it retries the key and succeeds.
	e := New(2)
	inst := testInstance(t)
	cfg := config.Default()
	var calls atomic.Int32
	started := make(chan struct{}, 2)
	runnerCtx, cancelRunner := context.WithCancel(context.Background())
	e.simFn = func(ctx context.Context, _ platform.Kind, _ config.Config, _ *dataset.Instance, _, _ int) (*platform.Result, error) {
		started <- struct{}{}
		if calls.Add(1) == 1 {
			<-ctx.Done() // first runner parks until cancelled
			return nil, ctx.Err()
		}
		return &platform.Result{Platform: "retry"}, nil
	}

	go e.SimulateCtx(runnerCtx, platform.BG2, cfg, inst, 2, 0)
	<-started
	resCh := make(chan *platform.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		r, err := e.SimulateCtx(context.Background(), platform.BG2, cfg, inst, 2, 0)
		resCh <- r
		errCh <- err
	}()
	// Park the waiter on the in-flight entry, then kill the runner.
	for {
		if _, hits := e.Stats(); hits >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancelRunner()
	select {
	case r := <-resCh:
		if err := <-errCh; err != nil {
			t.Fatalf("waiter err = %v, want retried success", err)
		}
		if r == nil || r.Platform != "retry" {
			t.Fatalf("waiter result = %+v, want the retried run's result", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung after its runner was cancelled")
	}
}

func TestSetMemoCapEvictsLRU(t *testing.T) {
	e := New(2)
	e.SetMemoCap(2)
	inst := testInstance(t)
	cfg := config.Default()
	var calls atomic.Int32
	e.simFn = func(_ context.Context, k platform.Kind, _ config.Config, _ *dataset.Instance, _, _ int) (*platform.Result, error) {
		calls.Add(1)
		return &platform.Result{Platform: k.String()}, nil
	}
	run := func(k platform.Kind) {
		t.Helper()
		if _, err := e.Simulate(k, cfg, inst, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	run(platform.CC)  // cache: [CC]
	run(platform.BG1) // cache: [BG1 CC]
	run(platform.CC)  // touch CC -> [CC BG1]
	run(platform.BG2) // evicts BG1 -> [BG2 CC]
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3", got)
	}
	if !e.Cached(Key(platform.CC, cfg, inst, 2, 0)) {
		t.Fatal("recently-used CC entry was evicted")
	}
	if e.Cached(Key(platform.BG1, cfg, inst, 2, 0)) {
		t.Fatal("LRU entry BG1 survived past the cap")
	}
	run(platform.BG1) // must re-run after eviction
	if got := calls.Load(); got != 4 {
		t.Fatalf("calls = %d, want 4 (evicted key must re-run)", got)
	}
	if n := e.Evictions(); n != 2 {
		t.Fatalf("evictions = %d, want 2", n)
	}
}

func TestThrottleCtx(t *testing.T) {
	e := New(1)
	release := make(chan struct{})
	started := make(chan struct{})
	go e.ThrottleCtx(context.Background(), func() error { close(started); <-release; return nil })
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := e.ThrottleCtx(ctx, func() error { ran = true; return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn ran despite cancelled slot wait")
	}
	close(release)
	if err := e.ThrottleCtx(context.Background(), func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("err = %v ran = %v, want nil/true", err, ran)
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if w := New(0).Workers(); w <= 0 {
		t.Fatalf("Workers = %d", w)
	}
	if w := New(5).Workers(); w != 5 {
		t.Fatalf("Workers = %d, want 5", w)
	}
}

// TestInstanceCachedPerEngine: an engine materializes each (name, nodes,
// page size, seed) once, keeps at most its instance cap resident, and
// a miss whose slot wait times out leaves nothing behind: the next
// request for the key materializes it.
func TestInstanceCachedPerEngine(t *testing.T) {
	e := New(1)
	e.SetInstanceCap(1)
	ctx := context.Background()
	a, err := e.Instance(ctx, "PPI", 500, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := e.Instance(ctx, "PPI", 500, 4096, 1); err != nil || again != a {
		t.Fatalf("repeat key: same instance = %v, err = %v", again == a, err)
	}
	if b, err := e.Instance(ctx, "PPI", 500, 4096, 2); err != nil || b == a {
		t.Fatalf("another seed: distinct instance = %v, err = %v", b != a, err)
	}
	if resident, materialized := e.Instances(); resident != 1 || materialized != 2 {
		t.Fatalf("resident=%d materialized=%d, want 1/2", resident, materialized)
	}
	if _, err := e.Instance(ctx, "nosuch", 500, 4096, 1); err == nil {
		t.Fatal("unknown dataset materialized")
	}

	release := make(chan struct{})
	started := make(chan struct{})
	go e.ThrottleCtx(ctx, func() error { close(started); <-release; return nil })
	<-started
	tctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := e.Instance(tctx, "PPI", 500, 4096, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the slot wait to time out", err)
	}
	close(release)
	if c, err := e.Instance(ctx, "PPI", 500, 4096, 3); err != nil || c == nil {
		t.Fatalf("retry after a timed-out slot wait: err = %v", err)
	}
	if _, materialized := e.Instances(); materialized != 4 {
		t.Fatalf("materialized = %d, want 4 (the timed-out miss and its retry both count)", materialized)
	}
}
