package pool

import (
	"sync"
	"testing"
)

type item struct{ n int }

// TestReleasedListFeedsNextRun checks the run-to-run hand-off: the
// objects a run puts back reach the next run's list whole, and nothing
// is constructed while they last.
func TestReleasedListFeedsNextRun(t *testing.T) {
	s := NewShelf(func() *item { return &item{} })
	first := s.List()
	a, b := first.Get(), first.Get()
	first.Put(a)
	first.Put(b)
	first.Release()

	before := Constructed()
	next := s.List()
	got := map[*item]bool{next.Get(): true, next.Get(): true}
	if !got[a] || !got[b] || Constructed() != before {
		t.Fatalf("next run got %v (constructed %d), want the released objects", got, Constructed()-before)
	}
	if next.Get(); Constructed() != before+1 {
		t.Fatal("an emptied list must construct")
	}
}

// TestShelfKeepsAtMostCap checks the bound on what a shelf retains.
func TestShelfKeepsAtMostCap(t *testing.T) {
	s := NewShelf(func() *item { return &item{} })
	for i := 0; i < shelfCap+3; i++ {
		l := s.List()
		l.Put(&item{n: i})
		l.Release()
	}
	if len(s.idle) != shelfCap {
		t.Fatalf("shelf holds %d lists, want %d", len(s.idle), shelfCap)
	}
}

// TestDisabledListAllocates checks the off switch the determinism tests
// rely on: every Get constructs and Put keeps nothing.
func TestDisabledListAllocates(t *testing.T) {
	s := NewShelf(func() *item { return &item{} })
	warm := s.List()
	warm.Put(&item{})
	warm.Release()
	Disable(true)
	defer Disable(false)
	l := s.List()
	v := l.Get()
	l.Put(v)
	if w := l.Get(); w == v || len(s.idle) != 1 {
		t.Fatal("disabled list recycled an object")
	}
}

// TestShelfConcurrentRuns runs many owners at once, each taking a list,
// cycling objects through it and handing it back; under -race this
// checks that lists crossing goroutines through the shelf are handed
// over safely, and that no object is live in two owners at once.
func TestShelfConcurrentRuns(t *testing.T) {
	s := NewShelf(func() *item { return &item{} })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for run := 0; run < 50; run++ {
				l := s.List()
				held := make([]*item, 0, 16)
				for i := 0; i < 16; i++ {
					v := l.Get()
					if v.n != 0 {
						t.Errorf("object still owned by %d", v.n)
					}
					v.n = g + 1
					held = append(held, v)
				}
				for _, v := range held {
					v.n = 0
					l.Put(v)
				}
				l.Release()
			}
		}(g)
	}
	wg.Wait()
}
