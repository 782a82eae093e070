// Package fanout runs the chunks of one deterministic computation on
// several cores. Each chunk writes its own disjoint part of the output,
// so the result does not depend on how many chunks there are or on
// which goroutine runs which.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Count returns how many chunks to split work units into: one per
// usable core, but none smaller than minChunk units, and at least one.
func Count(work, minChunk int) int {
	return max(1, min(runtime.GOMAXPROCS(0), work/minChunk))
}

// Run calls fn(i) for every i in [0, n): chunk 0 on the calling
// goroutine, the others on n−1 helper goroutines. It returns once every
// call has returned. If any call panics, Run panics on the calling
// goroutine with that call's value after every chunk has finished (the
// lowest-numbered chunk's value if several panic), so a chunk's panic
// reaches the caller's recover instead of killing the process from a
// helper goroutine.
func Run(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	r := &run{fn: fn}
	r.wg.Add(n - 1)
	// One closure serves every helper; each takes the next chunk.
	helper := r.helper
	for range n - 1 {
		go helper()
	}
	r.call(0)
	r.wg.Wait()
	if r.panicked {
		panic(r.val)
	}
}

type run struct {
	fn       func(int)
	next     atomic.Int64 // last chunk taken
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked bool
	first    int // lowest panicking chunk
	val      any
}

func (r *run) helper() {
	defer r.wg.Done()
	r.call(int(r.next.Add(1)))
}

// call runs chunk i and records its panic.
func (r *run) call(i int) {
	done := false
	defer func() {
		if done {
			return
		}
		v := recover()
		r.mu.Lock()
		if !r.panicked || i < r.first {
			r.panicked, r.first, r.val = true, i, v
		}
		r.mu.Unlock()
	}()
	r.fn(i)
	done = true
}
