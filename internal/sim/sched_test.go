package sim

import (
	"reflect"
	"testing"
)

// schedScenario submits a long blocker and then, while the server is
// busy, the given waiter services (ids 0..n-1 in submission order).
// It returns the waiter completion order under the scheduler.
func schedScenario(sc Scheduler, services []Time, deadlines []Time) []int {
	k := New()
	s := NewServer(k, 1)
	s.SetScheduler(sc)
	s.Submit(1000, nil) // blocker: every waiter below queues behind it
	var order []int
	for i, svc := range services {
		i := i
		dl := Time(0)
		if deadlines != nil {
			dl = deadlines[i]
		}
		s.SubmitFull(svc, dl, nil, func() { order = append(order, i) })
	}
	k.Run()
	return order
}

func TestSJFServesShortestFirst(t *testing.T) {
	got := schedScenario(NewSJF(), []Time{30, 10, 20}, nil)
	want := []int{1, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SJF order = %v, want %v", got, want)
	}
}

func TestSJFTieBreaksByArrival(t *testing.T) {
	got := schedScenario(NewSJF(), []Time{10, 10, 10, 10}, nil)
	want := []int{0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SJF tie order = %v, want arrival order %v", got, want)
	}
}

func TestEDFServesEarliestDeadline(t *testing.T) {
	got := schedScenario(NewEDF(1_000_000),
		[]Time{10, 10, 10},
		[]Time{3000, 1000, 2000})
	want := []int{1, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EDF order = %v, want %v", got, want)
	}
}

// TestEDFDefaultDeadlineIsSeniority: requests without an explicit
// deadline get arrived+budget, so among them age decides — and an old
// default-deadline request outranks a newer one with a later explicit
// deadline.
func TestEDFDefaultDeadlineIsSeniority(t *testing.T) {
	got := schedScenario(NewEDF(500),
		[]Time{10, 10, 10},
		[]Time{0, 2000, 0}) // defaults resolve to 0+500
	want := []int{0, 2, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EDF default-deadline order = %v, want %v", got, want)
	}
}

// TestEDFStarvationBound: under a sustained stream of later arrivals
// with no explicit deadlines, seniority converts to urgency — the
// oldest waiter is served first the moment a slot frees, so no request
// waits behind traffic that arrived after it.
func TestEDFStarvationBound(t *testing.T) {
	k := New()
	s := NewServer(k, 1)
	s.SetScheduler(NewEDF(100))
	s.Submit(1000, nil)
	victimDone := Time(-1)
	laterBefore := 0
	s.SubmitFull(50, 0, nil, func() { victimDone = k.Now() })
	// 20 later arrivals, staggered while the blocker still runs.
	for i := 0; i < 20; i++ {
		at := Time(10 * (i + 1))
		k.After(at, func() {
			s.SubmitFull(5, 0, nil, func() {
				if victimDone < 0 {
					laterBefore++
				}
			})
		})
	}
	k.Run()
	if victimDone < 0 {
		t.Fatal("victim never completed")
	}
	if laterBefore != 0 {
		t.Fatalf("%d later arrivals served before the senior request", laterBefore)
	}
}

// TestTotalFitReordersWithinBatch: with zero break penalty the DP forms
// one batch over the window and serves it shortest-first.
func TestTotalFitReordersWithinBatch(t *testing.T) {
	got := schedScenario(NewTotalFit(8, 0), []Time{50, 10, 30}, nil)
	want := []int{1, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("total-fit order = %v, want shortest-first %v", got, want)
	}
}

// TestTotalFitLargePenaltyIsFIFO: a break penalty dwarfing any possible
// stall saving makes singleton batches optimal — pure arrival order.
func TestTotalFitLargePenaltyIsFIFO(t *testing.T) {
	got := schedScenario(NewTotalFit(8, 1<<40), []Time{50, 10, 30}, nil)
	want := []int{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("total-fit order = %v, want FIFO %v", got, want)
	}
}

// TestTotalFitStarvationBound: batches stay in arrival order, so a long
// request can be overtaken only by requests planned into its own batch —
// at most maxBatch-1 of them, however many shorter requests keep arriving.
func TestTotalFitStarvationBound(t *testing.T) {
	const maxBatch = 4
	k := New()
	s := NewServer(k, 1)
	s.SetScheduler(NewTotalFit(maxBatch, 0))
	s.Submit(1000, nil)
	victimDone := Time(-1)
	overtakes := 0
	s.SubmitFull(500, 0, nil, func() { victimDone = k.Now() })
	for i := 0; i < 30; i++ {
		at := Time(10 * (i + 1))
		k.After(at, func() {
			s.Submit(1, func() {
				if victimDone < 0 {
					overtakes++
				}
			})
		})
	}
	k.Run()
	if victimDone < 0 {
		t.Fatal("victim never completed")
	}
	if overtakes > maxBatch-1 {
		t.Fatalf("victim overtaken by %d later arrivals, bound is %d", overtakes, maxBatch-1)
	}
}

// TestSchedulerDeterministic: identical submission schedules produce
// identical completion orders, run after run, for every policy.
func TestSchedulerDeterministic(t *testing.T) {
	mks := map[string]func() Scheduler{
		"sjf":      NewSJF,
		"edf":      func() Scheduler { return NewEDF(300) },
		"totalfit": func() Scheduler { return NewTotalFit(4, 20) },
	}
	services := make([]Time, 64)
	r := uint64(99)
	for i := range services {
		r = r*6364136223846793005 + 1442695040888963407
		services[i] = Time(r%97 + 1)
	}
	for name, mk := range mks {
		first := schedScenario(mk(), services, nil)
		if len(first) != len(services) {
			t.Fatalf("%s: %d of %d completed", name, len(first), len(services))
		}
		for run := 0; run < 3; run++ {
			if again := schedScenario(mk(), services, nil); !reflect.DeepEqual(again, first) {
				t.Fatalf("%s: completion order diverged between runs:\n%v\n%v", name, first, again)
			}
		}
	}
}

// TestSchedulerDrainsAndCounts: QueueLen reflects the policy queue and
// every request completes (conservation across the scheduled path).
func TestSchedulerDrainsAndCounts(t *testing.T) {
	for _, mk := range []func() Scheduler{
		NewSJF,
		func() Scheduler { return NewEDF(100) },
		func() Scheduler { return NewTotalFit(3, 10) },
	} {
		k := New()
		s := NewServer(k, 2)
		sc := mk()
		s.SetScheduler(sc)
		done := 0
		for i := 0; i < 100; i++ {
			s.Submit(Time(i%11+1), func() { done++ })
		}
		if got := s.QueueLen(); got != 98 {
			t.Fatalf("%s: QueueLen = %d, want 98 (2 in service)", sc.name(), got)
		}
		k.Run()
		if done != 100 {
			t.Fatalf("%s: %d of 100 completed", sc.name(), done)
		}
		if s.QueueLen() != 0 || s.Busy() != 0 {
			t.Fatalf("%s: not drained", sc.name())
		}
	}
}

func TestSetSchedulerPanicsWithWaiters(t *testing.T) {
	k := New()
	s := NewServer(k, 1)
	s.Submit(10, nil)
	s.Submit(10, nil) // waits
	defer func() {
		if recover() == nil {
			t.Fatal("SetScheduler with waiting requests did not panic")
		}
	}()
	s.SetScheduler(NewSJF())
}

// TestSchedulerWaitStatsTracer: the tracer and wait accounting see
// scheduled requests exactly as FIFO ones (arrived/start/end spans).
func TestSchedulerWaitStatsTracer(t *testing.T) {
	k := New()
	s := NewServer(k, 1)
	s.SetScheduler(NewSJF())
	tr := &nullTracer{}
	s.SetTracer(tr, "t", 0)
	for i := 0; i < 10; i++ {
		s.Submit(5, nil)
	}
	k.Run()
	if tr.spans != 10 {
		t.Fatalf("spans = %d, want 10", tr.spans)
	}
}
