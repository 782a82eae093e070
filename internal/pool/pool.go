// Package pool provides run-owned free lists with an off switch.
//
// The simulator's request path reuses per-request state objects whose
// continuation funcs are bound once at construction, so steady-state
// request processing allocates nothing. A simulation runs on one
// goroutine, so each run owns its free lists outright: Get and Put are
// a slice pop and push with no locking. A run takes each list whole
// from its type's Shelf on first use and hands it back when the run
// returns, so a warm process starts every run with the objects the
// runs before it built. A shelf is strongly held (unlike sync.Pool, a
// garbage collection does not empty it) and keeps at most shelfCap
// idle lists per type, so what it retains is bounded by the peak
// outstanding objects of a few runs.
//
// Correctness of the reset discipline is testable: Disable turns every
// list into a plain allocator, and the determinism tests compare
// pooled and fresh-alloc runs byte for byte.
package pool

import (
	"sync"
	"sync/atomic"
)

// disabled switches every List to fresh allocation. It is written only
// by tests, before any simulation starts — never concurrently with use.
var disabled bool

// Disable turns pooling off (true) or back on (false). Test-only; must
// not be called while simulations are running.
func Disable(d bool) { disabled = d }

// Disabled reports whether pooling is off.
func Disabled() bool { return disabled }

// constructed counts the objects every shelf's constructor has built.
var constructed atomic.Uint64

// Constructed returns how many pooled objects have been constructed
// process-wide. A warm run that draws only recycled objects leaves it
// unchanged.
func Constructed() uint64 { return constructed.Load() }

// shelfCap is how many idle lists a shelf keeps per type: enough for
// the runs a process executes side by side to hand their lists on,
// small enough that the retained objects stay a few runs' worth.
const shelfCap = 8

// Shelf holds the idle free lists of one type between runs. It is safe
// for concurrent use; the lists it hands out are not.
type Shelf[T any] struct {
	mu   sync.Mutex
	idle [][]*T
	cons func() *T
}

// NewShelf returns a shelf whose lists construct with cons. The
// constructor runs once per fresh object (or on every Get while
// disabled), which is where pooled state machines bind their
// continuation funcs.
func NewShelf[T any](cons func() *T) *Shelf[T] { return &Shelf[T]{cons: cons} }

// List returns an empty list drawing on the shelf. It takes an idle
// list off the shelf at its first Get.
func (s *Shelf[T]) List() List[T] { return List[T]{shelf: s} }

func (s *Shelf[T]) take() []*T {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idle)
	if n == 0 {
		return nil
	}
	free := s.idle[n-1]
	s.idle[n-1] = nil
	s.idle = s.idle[:n-1]
	return free
}

func (s *Shelf[T]) give(free []*T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.idle) < shelfCap {
		s.idle = append(s.idle, free)
	}
}

// List is one run's free list. It is not safe for concurrent use: its
// owner (a System, a Backend, a Router) runs on one goroutine.
type List[T any] struct {
	shelf *Shelf[T]
	free  []*T
	taken bool // free came off the shelf (or the shelf had none)
}

// Get returns a recycled object, or a freshly constructed one when the
// list is empty or pooling is disabled. The caller owns it until Put.
func (l *List[T]) Get() *T {
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		return v
	}
	if !l.taken && !disabled {
		l.taken = true
		l.free = l.shelf.take()
		if n := len(l.free); n > 0 {
			v := l.free[n-1]
			l.free = l.free[:n-1]
			return v
		}
	}
	constructed.Add(1)
	return l.shelf.cons()
}

// Put returns an object to the list. Callers must clear every reference
// field first (the reset discipline); while disabled it is a no-op and
// the object is garbage.
func (l *List[T]) Put(v *T) {
	if disabled {
		return
	}
	l.free = append(l.free, v)
}

// Release hands the list back to its shelf once the owner's run has
// returned; no object still in flight may be Put afterwards. The list
// is left empty, and a later Get takes another list off the shelf.
func (l *List[T]) Release() {
	if len(l.free) > 0 {
		l.shelf.give(l.free)
	}
	l.free, l.taken = nil, false
}
