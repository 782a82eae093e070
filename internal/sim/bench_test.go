package sim

// Microbenchmarks for the event kernel and the FIFO service center.
// Run with -benchmem: the timing-wheel queue schedules events with zero
// per-event allocations (every event is recycled through one slab, and
// a warm kernel takes the whole queue off the shelf), and the
// head-indexed Server ring pops without reslicing the backlog.

import "testing"

// BenchmarkEventKernel measures raw schedule+dispatch throughput: a
// chain of self-rescheduling events interleaved with a fan-out burst of
// 64 distinct times, so most wheel slots hold a single event and the
// bitmap scan steps over gaps.
func BenchmarkEventKernel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New()
		n := 0
		var spin func()
		spin = func() {
			n++
			if n < 4096 {
				k.After(Time(7+n%13), spin)
			}
		}
		// A standing burst so the queue holds many times, not one FIFO.
		for j := 0; j < 64; j++ {
			k.At(Time(j*3), func() {})
		}
		k.After(1, spin)
		k.Run()
	}
}

// BenchmarkKernelDeep measures scheduling against a deep standing queue
// of mostly unique times up to 100 µs out: those within the wheel's
// horizon take slots, and the rest overflow into the 4-ary heap.
func BenchmarkKernelDeep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New()
		for j := 0; j < 10_000; j++ {
			k.At(Time((j*2654435761)%100_000), func() {})
		}
		k.Run()
	}
}

// BenchmarkServer measures the FIFO hot path under persistent backlog:
// every completion pops the ring head and begins the next request. Each
// op's kernel hands its server back, as a simulation's owner does, so a
// warm op runs on the arrays the ops before it grew.
func BenchmarkServer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New()
		s := NewServer(k, 4)
		done := 0
		// One shared callback: the benchmark measures the server's
		// request path, not per-submit closure construction.
		cb := func() { done++ }
		for j := 0; j < 4096; j++ {
			s.Submit(10, cb)
		}
		k.Run()
		k.ReleaseServers()
		if done != 4096 {
			b.Fatalf("done = %d", done)
		}
	}
}

// BenchmarkServerSched is BenchmarkServer with an SJF policy attached:
// the heap push/pop replaces the ring pop, with varied service times so
// the heap actually reorders.
func BenchmarkServerSched(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New()
		s := NewServer(k, 4)
		s.SetScheduler(NewSJF())
		done := 0
		cb := func() { done++ }
		for j := 0; j < 4096; j++ {
			s.Submit(Time(j%13+1), cb)
		}
		k.Run()
		k.ReleaseServers()
		if done != 4096 {
			b.Fatalf("done = %d", done)
		}
	}
}

// nullTracer is the cheapest possible Tracer — the benchmark below
// isolates the cost of the hook dispatch itself.
type nullTracer struct{ spans int }

func (t *nullTracer) ServerSpan(string, int, Time, Time, Time) { t.spans++ }

// BenchmarkServerTraced is BenchmarkServer with a tracer attached, for
// comparing the enabled-tracing overhead against the nil-check baseline.
func BenchmarkServerTraced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New()
		s := NewServer(k, 4)
		tr := &nullTracer{}
		s.SetTracer(tr, "bench", 0)
		done := 0
		cb := func() { done++ }
		for j := 0; j < 4096; j++ {
			s.Submit(10, cb)
		}
		k.Run()
		k.ReleaseServers()
		if done != 4096 || tr.spans != 4096 {
			b.Fatalf("done = %d spans = %d", done, tr.spans)
		}
	}
}
