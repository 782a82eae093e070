package sim

import (
	"reflect"
	"sync"
	"testing"

	"beacongnn/internal/pool"
)

// TestKernelOverflowTieRunsFirst pins the one ordering the wheel does
// not get by construction: an event pushed past the horizon lands in
// the overflow heap, time then brings its timestamp inside the window,
// and a later push at the same time lands in the wheel. The overflow
// event has the smaller seq, so it must run first.
func TestKernelOverflowTieRunsFirst(t *testing.T) {
	k := New()
	const at = wheelSize + 10
	var got []string
	k.At(at, func() { got = append(got, "overflow") })
	k.At(20, func() {
		k.At(at, func() { got = append(got, "wheel") })
		if k.q.overflow.len() != 1 || k.q.n != 2 {
			t.Fatalf("overflow %d of %d queued: want one event in each part", k.q.overflow.len(), k.q.n)
		}
	})
	k.Run()
	if !reflect.DeepEqual(got, []string{"overflow", "wheel"}) {
		t.Fatalf("dispatch order %v, want the overflow event first", got)
	}
}

// TestRunUntilAcrossWheelWrap moves the clock across the wheel's wrap
// with RunUntil: events in the slots just below wheelSize and in the
// wrapped slots above zero must still run in time order, and each
// window must stop at its limit.
func TestRunUntilAcrossWheelWrap(t *testing.T) {
	k := New()
	var got []Time
	rec := func() { got = append(got, k.Now()) }
	k.At(wheelSize-3, rec)
	if k.RunUntil(wheelSize-10) || k.Now() != wheelSize-10 {
		t.Fatalf("first window: now %v, pending %d", k.Now(), k.Pending())
	}
	k.After(20, rec) // wheelSize+10: a wrapped slot
	k.At(wheelSize-2, rec)
	if k.RunUntil(wheelSize+5) || k.Now() != wheelSize+5 {
		t.Fatalf("second window: now %v, pending %d", k.Now(), k.Pending())
	}
	k.At(wheelSize+7, rec)
	k.After(wheelSize-1, rec) // the last slot of the moved window
	k.Run()
	want := []Time{wheelSize - 3, wheelSize - 2, wheelSize + 7, wheelSize + 10, 2*wheelSize + 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ran at %v, want %v", got, want)
	}
}

// takeShelved takes the queue a drained Run handed back, returns it to
// the shelf and reports it.
func takeShelved() *queue {
	l := queueShelf.List()
	q := l.Get()
	l.Put(q)
	l.Release()
	return q
}

// schedMixed queues events in both parts of the queue, some at equal
// times, from a callback-free program.
func schedMixed(k *Kernel, fn func()) {
	for j := 0; j < 200; j++ {
		k.At(Time(j*j*37%(3*wheelSize)), fn)
		k.After(Time(j%7), fn)
	}
}

// TestDrainedRunShelvesCleanQueue checks the hand-back discipline: a
// drained Run shelves its queue with every slot head and bitmap word
// zero and the slab rewound to its sentinel, so the next run starts
// from an empty queue.
func TestDrainedRunShelvesCleanQueue(t *testing.T) {
	if pool.Disabled() {
		t.Skip("pooling disabled")
	}
	k := New()
	schedMixed(k, func() {})
	q := k.q
	if q.overflow.len() == 0 || q.overflow.len() == q.n {
		t.Fatal("program must use both the wheel and the overflow heap")
	}
	k.Run()
	if k.q != nil || k.Pending() != 0 {
		t.Fatal("drained Run kept its queue")
	}
	if got := takeShelved(); got != q {
		t.Fatal("drained queue is not the shelf's next queue")
	}
	for s := range q.slots {
		if q.slots[s].head != 0 {
			t.Fatalf("slot %d head %d after drain", s, q.slots[s].head)
		}
	}
	for w, b := range q.bits {
		if b != 0 {
			t.Fatalf("bitmap word %d = %#x after drain", w, b)
		}
	}
	if len(q.slab) != 1 || q.free != 0 || q.n != 0 || q.overflow.len() != 0 {
		t.Fatalf("slab %d, free %d, n %d, overflow %d after drain",
			len(q.slab), q.free, q.n, q.overflow.len())
	}
	for i, e := range q.slab[:cap(q.slab)] {
		if e.fn != nil || e.srv != nil {
			t.Fatalf("slab entry %d still holds a callback", i)
		}
	}
}

// TestStoppedRunShelvesNothing checks that a kernel stopped with events
// pending keeps its queue: shelving it would hand live events to the
// next run.
func TestStoppedRunShelvesNothing(t *testing.T) {
	if pool.Disabled() {
		t.Skip("pooling disabled")
	}
	k := New()
	k.At(1, k.Stop)
	k.At(2, func() { t.Fatal("event after Stop ran") })
	q := k.q
	k.Run()
	if k.q != q || k.Pending() != 1 {
		t.Fatalf("stopped kernel: queue kept %v, pending %d", k.q == q, k.Pending())
	}
	if takeShelved() == q {
		t.Fatal("a queue with pending events was shelved")
	}
}

// TestWarmRunAllocatesNoQueue checks that a warm run takes all of its
// queue storage — wheel, slab and overflow heap — off the shelf.
func TestWarmRunAllocatesNoQueue(t *testing.T) {
	if pool.Disabled() {
		t.Skip("pooling disabled")
	}
	fn := func() {}
	allocs := testing.AllocsPerRun(20, func() {
		var k Kernel
		schedMixed(&k, fn)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("warm run allocated %v times, want 0", allocs)
	}
}

// TestPooledQueueIsolationUnderConcurrency runs kernels on several
// goroutines at once, each taking queues off the shared shelf and
// handing them back, and checks that every goroutine's dispatch order
// matches a serial run. A queue shelved dirty or live in two kernels at
// once shows up as a diverging order; under -race the same test catches
// unsynchronized reuse directly.
func TestPooledQueueIsolationUnderConcurrency(t *testing.T) {
	order := func(seed int) []int {
		k := New()
		var got []int
		for j := 0; j < 300; j++ {
			d := Time((j*2654435761 + seed*97) % (2 * wheelSize))
			k.After(d, func() {
				got = append(got, j)
				if j%5 == 0 {
					k.After(Time(j%11), func() { got = append(got, -j) })
				}
			})
		}
		k.Run()
		return got
	}
	const workers, rounds = 4, 20
	want := make([][]int, workers)
	for w := range want {
		want[w] = order(w)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got := order(w); !reflect.DeepEqual(got, want[w]) {
					t.Errorf("worker %d round %d: dispatch order differs from the serial run", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
