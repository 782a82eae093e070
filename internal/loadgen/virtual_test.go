package loadgen

import (
	"fmt"
	"testing"

	"beacongnn/internal/sim"
	"beacongnn/internal/trace"
)

func uniformSchedule(t *testing.T, rate float64, n, classes int) []Request {
	t.Helper()
	sched, err := Build(ScheduleSpec{
		Seed:     42,
		Arrival:  Spec{Kind: ArrivalUniform, Rate: rate},
		Requests: n,
		Classes:  classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestRunVirtualUnderLoad: offered load well inside capacity completes
// everything with latency pinned at the service time.
func TestRunVirtualUnderLoad(t *testing.T) {
	sched := uniformSchedule(t, 100, 200, 1) // 10ms gaps
	res, err := RunVirtual(sched, VirtualBackend{Workers: 4, Service: []sim.Time{sim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 200 || res.Shed != 0 {
		t.Fatalf("ok/shed = %d/%d, want 200/0", res.OK, res.Shed)
	}
	// No queueing: every latency is exactly the 1ms service time
	// (bucket-midpoint estimate clamped by exact min/max stays within
	// the ±15% bucket).
	if res.P99Ns < int64(sim.Millisecond) || res.P99Ns > int64(sim.Millisecond)*12/10 {
		t.Fatalf("p99 = %dns, want ≈1ms", res.P99Ns)
	}
	if res.GoodputQPS < 90 || res.GoodputQPS > 110 {
		t.Fatalf("goodput = %v qps, want ≈100", res.GoodputQPS)
	}
}

// TestRunVirtualOverloadTailGrows: past saturation the virtual clock
// keeps firing arrivals on schedule, so the intended-start tail exposes
// the queue growth — the coordinated-omission safety of virtual time.
func TestRunVirtualOverloadTailGrows(t *testing.T) {
	sched := uniformSchedule(t, 1000, 100, 1) // 1ms gaps
	svc := 10 * sim.Millisecond               // 10x oversubscribed on one worker
	res, err := RunVirtual(sched, VirtualBackend{Workers: 1, Service: []sim.Time{svc}})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 100 {
		t.Fatalf("ok = %d, want all served eventually", res.OK)
	}
	// Last request waits ~99 service times behind the backlog; even p50
	// far exceeds one service time. A send-time clock would report ~svc.
	if res.P99Ns < int64(50*svc) {
		t.Fatalf("p99 = %dns: overload tail not visible (CO hidden?)", res.P99Ns)
	}
	if res.GoodputQPS > 150 {
		t.Fatalf("goodput = %v qps, can't exceed 1/service = 100", res.GoodputQPS)
	}
}

// TestRunVirtualQueueBoundSheds: a bounded admission queue sheds the
// overflow instead of queueing it; outcomes partition the schedule.
func TestRunVirtualQueueBoundSheds(t *testing.T) {
	sched := uniformSchedule(t, 1000, 100, 1)
	res, err := RunVirtual(sched, VirtualBackend{
		Workers: 1,
		Service: []sim.Time{10 * sim.Millisecond},
		Queue:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("oversubscribed bounded queue shed nothing")
	}
	if res.OK+res.Shed != res.Requests {
		t.Fatalf("outcomes don't partition: ok %d + shed %d != %d", res.OK, res.Shed, res.Requests)
	}
	// Shedding caps the wait at Queue·service.
	if res.P99Ns > int64(6*10*sim.Millisecond) {
		t.Fatalf("p99 = %dns, bounded queue should bound the tail", res.P99Ns)
	}
}

// TestRunVirtualCacheFastPath: with every class resident in the LRU,
// repeat classes serve at the hit latency without occupying workers.
func TestRunVirtualCacheFastPath(t *testing.T) {
	sched := uniformSchedule(t, 100, 50, 1) // one class: 1 miss, 49 hits
	res, err := RunVirtual(sched, VirtualBackend{
		Workers:  1,
		Service:  []sim.Time{5 * sim.Millisecond},
		CacheCap: 1,
		CacheHit: 200 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 50 {
		t.Fatalf("ok = %d", res.OK)
	}
	// 49/50 hits: p50 sits at the hit latency (within its bucket), far
	// below the miss service time.
	if res.P50Ns >= int64(sim.Millisecond) {
		t.Fatalf("p50 = %dns, cache fast path not taken", res.P50Ns)
	}
	if res.MaxNs < int64(5*sim.Millisecond) {
		t.Fatalf("max = %dns, the one miss should pay full service", res.MaxNs)
	}
}

// TestRunVirtualLRUEviction: more classes than capacity keeps evicting,
// so every request misses and pays full service.
func TestRunVirtualLRUEviction(t *testing.T) {
	// Classes alternate 0,1,0,1,... with cap 1 — always evicted.
	sched := make([]Request, 40)
	for i := range sched {
		sched[i] = Request{ID: i, At: sim.Time(i+1) * 10 * sim.Millisecond, Class: i % 2}
	}
	res, err := RunVirtual(sched, VirtualBackend{
		Workers:  2,
		Service:  []sim.Time{sim.Millisecond, sim.Millisecond},
		CacheCap: 1,
		CacheHit: 10 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.P50Ns < int64(sim.Millisecond)*8/10 {
		t.Fatalf("p50 = %dns: alternating classes with cap 1 must always miss", res.P50Ns)
	}
}

// TestRunVirtualDeterministic: identical inputs give identical structs —
// the property the -exp capacity byte-identity golden rests on.
func TestRunVirtualDeterministic(t *testing.T) {
	sched, err := Build(ScheduleSpec{
		Seed:     7,
		Arrival:  Spec{Kind: ArrivalMMPP, Rate: 2000, Burst: 1.6},
		Requests: 1000,
		Classes:  4,
		Skew:     1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := VirtualBackend{
		Workers:  4,
		Service:  []sim.Time{800 * sim.Microsecond, sim.Millisecond, 1200 * sim.Microsecond, 2 * sim.Millisecond},
		CacheCap: 2,
		CacheHit: 100 * sim.Microsecond,
		Queue:    16,
	}
	r1, err := RunVirtual(sched, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := RunVirtual(sched, b)
	if r1 != r2 {
		t.Fatalf("virtual runs diverged:\n%+v\n%+v", r1, r2)
	}
}

// TestRunVirtualTracerSpans: the backend reports spans under the
// loadgen.backend resource, mergeable across steps.
func TestRunVirtualTracerSpans(t *testing.T) {
	rec := trace.NewRecorder()
	sched := uniformSchedule(t, 100, 10, 1)
	if _, err := RunVirtual(sched, VirtualBackend{
		Workers: 1,
		Service: []sim.Time{sim.Millisecond},
		Tracer:  rec,
	}); err != nil {
		t.Fatal(err)
	}
	bd := rec.Breakdown()
	if len(bd) != 1 || bd[0].Resource != "loadgen.backend" || bd[0].Count != 10 {
		t.Fatalf("breakdown = %+v", bd)
	}
}

func TestRunVirtualValidation(t *testing.T) {
	sched := []Request{{ID: 0, At: 1, Class: 3}}
	if _, err := RunVirtual(sched, VirtualBackend{Workers: 0, Service: []sim.Time{1}}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := RunVirtual(sched, VirtualBackend{Workers: 1, Service: nil}); err == nil {
		t.Fatal("missing service classes accepted")
	}
	if _, err := RunVirtual(sched, VirtualBackend{Workers: 1, Service: []sim.Time{1}}); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

// TestResilienceGoodputUsesLastSettlement: every first attempt arms a
// hedge timer that can outlive the last request, so the kernel clock at
// drain overshoots the work. Goodput must divide by the last
// settlement. The shape is the quick chaos sweep's die-outage row: the
// last request arrives at 46.339ms and settles one 745.148µs service
// later, at 47.084ms (4247.7/s); its idle hedge timer fires at 47.829ms
// (which would read 4181.6/s).
func TestResilienceGoodputUsesLastSettlement(t *testing.T) {
	const healthy = 745_148
	interval := sim.Time(healthy * 10 / 32)
	sched := make([]Request, 200)
	for i := range sched {
		sched[i] = Request{ID: i + 1, At: sim.Time(i) * interval}
	}
	span := 199 * interval
	res, err := RunVirtual(sched, VirtualBackend{
		Workers: 4,
		Service: []sim.Time{healthy},
		Resilience: &Resilience{
			Window:       [2]sim.Time{span / 4, 3 * span / 4},
			FaultService: 734_311,
			MaxAttempts:  3,
			HedgeAfter:   2 * healthy,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 200 || res.Hedges != 0 {
		t.Fatalf("ok/hedges = %d/%d, want 200/0", res.OK, res.Hedges)
	}
	if want := int64(span + healthy); res.MakespanNs != want {
		t.Fatalf("makespan = %dns, want the last settlement %dns", res.MakespanNs, want)
	}
	if got := fmt.Sprintf("%.1f", res.GoodputQPS); got != "4247.7" {
		t.Fatalf("goodput = %s/s, want 4247.7/s", got)
	}
}
