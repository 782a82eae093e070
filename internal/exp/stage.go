package exp

import (
	"fmt"
	"sync"
)

// StageCache memoizes one pipeline stage of an experiment — dataset
// materialization, any expensive pure function of a key. Concurrent Do calls for the same key deduplicate:
// the first caller computes, the rest park on its completion. Results
// (including errors) are cached forever; keys must therefore capture
// every input the stage depends on.
type StageCache[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]*stageEntry[V]
	hits uint64
	runs uint64
}

type stageEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewStageCache returns an empty cache.
func NewStageCache[K comparable, V any]() *StageCache[K, V] {
	return &StageCache[K, V]{m: make(map[K]*stageEntry[V])}
}

// Do returns the cached value for key, computing it with fn on first
// use. fn runs at most once per key across all goroutines; a panic in
// fn is converted into the entry's error (so parked waiters unblock)
// and then re-raised in the computing goroutine.
func (c *StageCache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if ent, ok := c.m[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-ent.done
		return ent.val, ent.err
	}
	ent := &stageEntry[V]{done: make(chan struct{})}
	c.m[key] = ent
	c.runs++
	c.mu.Unlock()

	defer func() {
		if rec := recover(); rec != nil {
			ent.err = fmt.Errorf("exp: stage panicked: %v", rec)
			close(ent.done)
			panic(rec)
		}
		close(ent.done)
	}()
	ent.val, ent.err = fn()
	return ent.val, ent.err
}

// Stats returns how many stages were computed and how many calls were
// served from (or deduplicated onto) existing entries.
func (c *StageCache[K, V]) Stats() (runs, hits uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs, c.hits
}
