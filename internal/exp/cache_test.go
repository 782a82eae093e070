package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitHits polls until c has counted n hits, i.e. n callers found their
// key in the map and, for an in-flight key, are parked on it.
func waitHits[K comparable, V any](t *testing.T, c *Cache[K, V], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, hits := c.Stats(); hits >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d hits", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheDedupUnderConcurrency(t *testing.T) {
	c := NewCache[string, *int](0)
	release := make(chan struct{})
	var calls atomic.Int32
	const callers = 16
	out := make([]*int, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", func() (*int, error) {
				calls.Add(1)
				<-release
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			out[i] = v
		}(i)
	}
	waitHits(t, c, callers-1)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i := range out {
		if out[i] == nil || out[i] != out[0] {
			t.Fatal("callers got different values")
		}
	}
	if runs, hits := c.Stats(); runs != 1 || hits != callers-1 {
		t.Fatalf("runs=%d hits=%d, want 1/%d", runs, hits, callers-1)
	}
	// A completed key answers without running.
	if _, err := c.Do(context.Background(), "k", func() (*int, error) { panic("reran") }); err != nil {
		t.Fatal(err)
	}
}

func TestCacheWaitHonoursContext(t *testing.T) {
	c := NewCache[int, int](0)
	release := make(chan struct{})
	go c.Do(context.Background(), 1, func() (int, error) { <-release; return 1, nil })
	for !inFlight(c, 1) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, 1, func() (int, error) { return 0, errors.New("waiter ran") })
		errCh <- err
	}()
	waitHits(t, c, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if v, err := c.Do(context.Background(), 1, nil); err != nil || v != 1 {
		t.Fatalf("v=%d err=%v after the runner finished", v, err)
	}
}

func inFlight[K comparable, V any](c *Cache[K, V], key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.m[key]
	return ok && ent.prev == nil
}

// TestCacheAbandonOnCancelWaiterRetries: a runner cancelled mid-compute
// leaves no entry behind, and a waiter with a live context retries the
// key and becomes the new runner instead of inheriting the cancellation.
func TestCacheAbandonOnCancelWaiterRetries(t *testing.T) {
	c := NewCache[int, string](0)
	runnerCtx, cancelRunner := context.WithCancel(context.Background())
	started := make(chan struct{})
	runnerErr := make(chan error, 1)
	go func() {
		_, err := c.Do(runnerCtx, 7, func() (string, error) {
			close(started)
			<-runnerCtx.Done()
			return "", runnerCtx.Err()
		})
		runnerErr <- err
	}()
	<-started
	type result struct {
		v   string
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, err := c.Do(context.Background(), 7, func() (string, error) { return "retried", nil })
		waiter <- result{v, err}
	}()
	waitHits(t, c, 1)
	cancelRunner()
	if err := <-runnerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("runner err = %v, want context.Canceled", err)
	}
	select {
	case r := <-waiter:
		if r.err != nil || r.v != "retried" {
			t.Fatalf("waiter got %q, %v; want the retried value", r.v, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after its runner was cancelled")
	}
	if runs, _ := c.Stats(); runs != 2 {
		t.Fatalf("runs = %d, want 2 (cancelled run plus the waiter's retry)", runs)
	}
	if !c.Cached(7) {
		t.Fatal("retried value was not cached")
	}
}

func TestCacheTransientNotCachedDeterministicCached(t *testing.T) {
	c := NewCache[string, int](0)
	calls := 0
	transient := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fmt.Errorf("injected: %w", ErrTransient)
		}
		return 42, nil
	}
	if _, err := c.Do(context.Background(), "t", transient); !IsTransient(err) {
		t.Fatalf("first err = %v, want transient", err)
	}
	if c.Cached("t") {
		t.Fatal("transient failure was cached")
	}
	if v, err := c.Do(context.Background(), "t", transient); err != nil || v != 42 {
		t.Fatalf("retry after transient: v=%d err=%v", v, err)
	}

	hard := errors.New("deterministic")
	hardCalls := 0
	for i := 0; i < 2; i++ {
		_, err := c.Do(context.Background(), "h", func() (int, error) { hardCalls++; return 0, hard })
		if !errors.Is(err, hard) {
			t.Fatalf("call %d err = %v, want the deterministic error", i, err)
		}
	}
	if hardCalls != 1 {
		t.Fatalf("deterministic error recomputed %d times, want 1", hardCalls)
	}
	if !c.Cached("h") {
		t.Fatal("deterministic error not resident")
	}
	if _, ok := c.Get("h"); ok {
		t.Fatal("Get reported a cached error as a value")
	}
}

func TestCachePanicReachesRunnerAndWaiters(t *testing.T) {
	c := NewCache[int, int](0)
	started := make(chan struct{})
	release := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, err := c.Do(context.Background(), 1, func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
		errs <- err
	}()
	<-started
	go func() {
		_, err := c.Do(context.Background(), 1, func() (int, error) { return 0, nil })
		errs <- err
	}()
	waitHits(t, c, 1)
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
				t.Fatalf("err = %v, want the stored panic", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("caller deadlocked after a panicking computation")
		}
	}
	// The panic is a deterministic error: it stays cached.
	if !c.Cached(1) {
		t.Fatal("panic error not cached")
	}
}

func TestCacheLRUOrderAndCap(t *testing.T) {
	c := NewCache[int, int](2)
	var calls int
	do := func(k int) {
		t.Helper()
		if _, err := c.Do(context.Background(), k, func() (int, error) { calls++; return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	do(1) // [1]
	do(2) // [2 1]
	do(1) // touch 1 -> [1 2]
	do(3) // evicts 2 -> [3 1]
	if calls != 3 || !c.Cached(1) || c.Cached(2) || !c.Cached(3) {
		t.Fatalf("calls=%d cached(1,2,3)=%v,%v,%v; want 3 and true,false,true",
			calls, c.Cached(1), c.Cached(2), c.Cached(3))
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("len=%d evictions=%d, want 2/1", c.Len(), c.Evictions())
	}

	// In-flight entries are never evicted: a slow key stays dedupable
	// while completions churn the ring past the cap.
	release := make(chan struct{})
	slow := make(chan int, 1)
	go func() {
		v, _ := c.Do(context.Background(), 99, func() (int, error) { <-release; return 99, nil })
		slow <- v
	}()
	for !inFlight(c, 99) {
		time.Sleep(time.Millisecond)
	}
	for k := 10; k < 15; k++ {
		do(k)
	}
	if n := c.EvictOldest(10); n != 2 {
		t.Fatalf("EvictOldest(10) = %d, want the 2 completed entries", n)
	}
	if !inFlight(c, 99) {
		t.Fatal("in-flight entry was evicted")
	}
	close(release)
	if v := <-slow; v != 99 || !c.Cached(99) {
		t.Fatalf("slow key: v=%d cached=%v", v, c.Cached(99))
	}

	// Unbounded caches ignore eviction storms.
	u := NewCache[int, int](0)
	u.Put(1, 1)
	if n := u.EvictOldest(5); n != 0 || !u.Cached(1) {
		t.Fatalf("unbounded cache evicted %d", n)
	}
}

func TestCachePutGet(t *testing.T) {
	c := NewCache[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // touch a -> [a b]
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived past the cap")
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("Put did not replace: a = %d", v)
	}
	// Two Gets found their key; the miss on b counts nothing.
	if runs, hits := c.Stats(); runs != 0 || hits != 2 {
		t.Fatalf("Stats after Gets = %d runs, %d hits; want 0, 2", runs, hits)
	}
	// Do answers a Put value without running.
	if v, err := c.Do(context.Background(), "c", nil); err != nil || v != 3 {
		t.Fatalf("Do on a Put entry: %d, %v", v, err)
	}
}

func TestCachePutResidentAllocs(t *testing.T) {
	c := NewCache[string, *int](4)
	v := new(int)
	c.Put("k", v)
	if n := testing.AllocsPerRun(100, func() { c.Put("k", v) }); n != 0 {
		t.Fatalf("resident Put made %.1f allocs, want 0", n)
	}
}
