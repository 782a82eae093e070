package sim

import (
	"testing"

	"beacongnn/internal/pool"
)

// takeShelvedServers takes the server shelf's next set and puts it back.
func takeShelvedServers() *serverSet {
	l := serverShelf.List()
	set := l.Get()
	l.Put(set)
	l.Release()
	return set
}

// TestReleasedServersAreRecycled checks the server-set round trip: a
// drained kernel hands its servers back reset, with their arrays, and
// the next kernel's NewServer calls get the same servers in the same
// order, at the widths they ask for.
func TestReleasedServersAreRecycled(t *testing.T) {
	if pool.Disabled() {
		t.Skip("pooling disabled")
	}
	k := New()
	a, b := NewServer(k, 2), NewServer(k, 1)
	u := NewUtilization(8)
	a.SetUtilization(u)
	a.SetTracer(&spanRec{}, "x", 1)
	b.SetScheduler(NewSJF())
	for i := 0; i < 40; i++ {
		a.SubmitFull(Time(i%3+1), 0, func(Time) {}, func() {})
		b.Submit(1, func() {})
	}
	k.Run()
	queueCap, slotCap := cap(a.queue), cap(a.slots)
	if queueCap == 0 || slotCap == 0 {
		t.Fatal("program must grow a's queue and slot table")
	}
	k.ReleaseServers()
	if k.servers != nil {
		t.Fatal("drained kernel kept its servers")
	}
	set := takeShelvedServers()
	if set.n != 0 || len(set.srv) != 2 || set.srv[0] != a || set.srv[1] != b {
		t.Fatalf("shelved set holds %d servers, %d handed out; want a and b, none out", len(set.srv), set.n)
	}
	for i, s := range set.srv {
		if s.k != nil || s.util != nil || s.tracer != nil || s.sched != nil ||
			s.busy != 0 || s.head != 0 || s.subSeq != 0 || len(s.queue) != 0 || len(s.slots) != 0 || len(s.free) != 0 {
			t.Fatalf("server %d not reset: %+v", i, s)
		}
		for j, r := range s.queue[:cap(s.queue)] {
			if r.start != nil || r.done != nil {
				t.Fatalf("server %d queue entry %d still holds a callback", i, j)
			}
		}
		for j, r := range s.slots[:cap(s.slots)] {
			if r.done != nil {
				t.Fatalf("server %d slot %d still holds a callback", i, j)
			}
		}
	}
	if cap(a.queue) != queueCap || cap(a.slots) != slotCap {
		t.Fatal("reset dropped the server's arrays")
	}

	k2 := New()
	if NewServer(k2, 3) != a || NewServer(k2, 1) != b {
		t.Fatal("next kernel did not get the released servers in order")
	}
	c := NewServer(k2, 1)
	if c == a || c == b || a.Width() != 3 || a.k != k2 {
		t.Fatal("a set that runs short must grow with a fresh server")
	}
	k2.ReleaseServers()
	if set := takeShelvedServers(); len(set.srv) != 3 {
		t.Fatalf("grown set shelved with %d servers, want 3", len(set.srv))
	}
}

// TestStoppedKernelKeepsServers checks that a kernel stopped with
// events pending keeps its servers: those events name them.
func TestStoppedKernelKeepsServers(t *testing.T) {
	if pool.Disabled() {
		t.Skip("pooling disabled")
	}
	k := New()
	s := NewServer(k, 1)
	s.Submit(5, k.Stop)
	s.Submit(5, func() { t.Fatal("event after Stop ran") })
	k.Run()
	k.ReleaseServers()
	if k.servers == nil || s.k != k || s.Busy() != 1 {
		t.Fatal("stopped kernel gave its servers back")
	}
	if set := takeShelvedServers(); set.n == 0 && len(set.srv) > 0 && set.srv[0] == s {
		t.Fatal("a server with events pending was shelved")
	}
}

// TestDisabledPoolBuildsFreshServers checks that with pooling off every
// kernel's servers are new, so pooled-against-fresh comparisons compare
// against servers no run has touched.
func TestDisabledPoolBuildsFreshServers(t *testing.T) {
	pool.Disable(true)
	defer pool.Disable(false)
	k := New()
	a := NewServer(k, 1)
	a.Submit(1, nil)
	k.Run()
	k.ReleaseServers()
	if NewServer(New(), 1) == a {
		t.Fatal("disabled pool recycled a server")
	}
}
