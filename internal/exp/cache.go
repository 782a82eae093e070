package exp

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Cache is a keyed, deduplicating memo with an optional LRU cap. It is
// the one cache protocol of the engine and the daemon: simulation results,
// dataset instances, last-known-good answers and validated request bodies.
//
//   - Do computes a key at most once at a time: concurrent callers park
//     on the in-flight entry instead of recomputing, and each wait
//     honours the caller's context.
//   - A panic in the computation becomes the entry's error, which the
//     runner and every waiter see.
//   - Cancellations and ErrTransient failures are removed before the
//     waiters wake, and the waiters retry the key rather than inherit a
//     failure that was not theirs. Values and deterministic errors are
//     cached.
//   - With a cap, completed entries past it are evicted least recently
//     used first. In-flight entries are never evicted: they enter the
//     LRU ring only once they complete.
//
// Keys must capture every input the computation depends on.
type Cache[K comparable, V any] struct {
	mu  sync.Mutex
	m   map[K]*cacheEntry[K, V]
	lru cacheEntry[K, V] // ring sentinel: lru.next is the most recently used
	n   int              // completed entries in the ring
	cap int              // max completed entries (<= 0: unbounded)

	hits, runs, evicted uint64
}

type cacheEntry[K comparable, V any] struct {
	key  K
	val  V
	err  error
	done chan struct{} // closed once val/err are final or the entry is abandoned; nil for Put entries

	// abandoned marks an entry removed on cancellation or a transient
	// failure; a waiter that wakes on it retries the key.
	abandoned bool

	// prev/next link a completed, resident entry into the LRU ring;
	// both are nil while the entry is in flight or after it left.
	prev, next *cacheEntry[K, V]
}

// NewCache returns an empty cache keeping at most cap completed
// entries (cap <= 0: unbounded).
func NewCache[K comparable, V any](cap int) *Cache[K, V] {
	c := &Cache[K, V]{m: make(map[K]*cacheEntry[K, V]), cap: cap}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// SetCap changes the cap on completed entries (<= 0: unbounded). It
// takes effect at the next completion; call it before first use.
func (c *Cache[K, V]) SetCap(n int) {
	c.mu.Lock()
	c.cap = n
	c.mu.Unlock()
}

// Do returns the cached value for key, computing it with fn on a miss.
// Callers that find key in flight wait for it, giving up with ctx's
// error if ctx ends first.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		c.mu.Lock()
		ent, ok := c.m[key]
		if !ok {
			ent = &cacheEntry[K, V]{key: key, done: make(chan struct{})}
			c.m[key] = ent
			c.runs++
			c.mu.Unlock()
			return c.run(ent, fn)
		}
		c.hits++
		if ent.prev != nil { // completed: answer under the lock
			c.moveToFront(ent)
			v, err := ent.val, ent.err
			c.mu.Unlock()
			return v, err
		}
		c.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		c.mu.Lock()
		v, err, abandoned := ent.val, ent.err, ent.abandoned
		c.mu.Unlock()
		if !abandoned {
			return v, err
		}
	}
}

// run computes ent and publishes it. The deferred finish runs even if
// fn panics: waiters park on ent.done, and a skipped close would strand
// them forever.
func (c *Cache[K, V]) run(ent *cacheEntry[K, V], fn func() (V, error)) (v V, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			var zero V
			v, err = zero, fmt.Errorf("exp: computing %v panicked: %v", ent.key, rec)
		}
		c.finish(ent, v, err)
	}()
	return fn()
}

// finish removes a cancelled or transiently failed entry, or links a
// completed one into the LRU and trims past the cap, then wakes the
// waiters.
func (c *Cache[K, V]) finish(ent *cacheEntry[K, V], v V, err error) {
	c.mu.Lock()
	ent.val, ent.err = v, err
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || IsTransient(err)) {
		delete(c.m, ent.key)
		ent.abandoned = true
	} else {
		c.pushFront(ent)
		c.trim()
	}
	c.mu.Unlock()
	close(ent.done)
}

// Put stores v under key as a completed value and marks it most
// recently used. A resident entry is updated in place, without
// allocating; a key whose Do is in flight is left to that Do.
func (c *Cache[K, V]) Put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.m[key]; ok {
		if ent.prev != nil {
			ent.val, ent.err = v, nil
			c.moveToFront(ent)
		}
		return
	}
	ent := &cacheEntry[K, V]{key: key, val: v}
	c.m[key] = ent
	c.pushFront(ent)
	c.trim()
}

// Get returns key's resident value, marks it most recently used and
// counts a hit. In-flight entries and cached errors report ok = false
// and count nothing.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.m[key]
	if !ok || ent.prev == nil || ent.err != nil {
		return v, false
	}
	c.hits++
	c.moveToFront(ent)
	return ent.val, true
}

// Cached reports whether key has completed and is resident, i.e.
// whether Do would answer without running or waiting.
func (c *Cache[K, V]) Cached(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.m[key]
	return ok && ent.prev != nil
}

// EvictOldest drops up to n least recently used completed entries and
// reports how many it dropped. It is a no-op on an unbounded cache,
// whose callers rely on every entry staying resident.
func (c *Cache[K, V]) EvictOldest(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return 0
	}
	dropped := 0
	for ; dropped < n && c.n > 0; dropped++ {
		c.evict(c.lru.prev)
	}
	return dropped
}

// Len returns the number of completed, resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Stats returns how many Do calls ran their computation, and how many
// Do calls found the key already cached or in flight plus how many Get
// calls found it resident.
func (c *Cache[K, V]) Stats() (runs, hits uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs, c.hits
}

// Evictions returns how many completed entries the cap and EvictOldest
// have dropped.
func (c *Cache[K, V]) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// The ring helpers below run with c.mu held.

func (c *Cache[K, V]) pushFront(ent *cacheEntry[K, V]) {
	ent.prev, ent.next = &c.lru, c.lru.next
	c.lru.next.prev = ent
	c.lru.next = ent
	c.n++
}

func (c *Cache[K, V]) moveToFront(ent *cacheEntry[K, V]) {
	if c.lru.next == ent {
		return
	}
	ent.prev.next, ent.next.prev = ent.next, ent.prev
	c.n--
	c.pushFront(ent)
}

func (c *Cache[K, V]) trim() {
	for c.cap > 0 && c.n > c.cap {
		c.evict(c.lru.prev)
	}
}

func (c *Cache[K, V]) evict(ent *cacheEntry[K, V]) {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
	ent.prev, ent.next = nil, nil
	c.n--
	c.evicted++
	delete(c.m, ent.key)
}
