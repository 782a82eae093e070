package firmware

import (
	"testing"

	"beacongnn/internal/sim"
)

func proc(t *testing.T, cores int) (*sim.Kernel, *Processor) {
	t.Helper()
	k := sim.New()
	p, err := NewProcessor(k, cores)
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestProcessorValidation(t *testing.T) {
	if _, err := NewProcessor(sim.New(), 0); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestCoreContention(t *testing.T) {
	k, p := proc(t, 2)
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		p.Do(10, func() { ends = append(ends, k.Now()) })
	}
	k.Run()
	// 2 cores: pairs finish at 10 and 20.
	if ends[0] != 10 || ends[1] != 10 || ends[2] != 20 || ends[3] != 20 {
		t.Fatalf("ends = %v", ends)
	}
}

func TestOnBusyHook(t *testing.T) {
	k, p := proc(t, 1)
	var total sim.Time
	p.OnBusy = func(d sim.Time) { total += d }
	p.Do(7, nil)
	p.Do(5, nil)
	k.Run()
	if total != 12 {
		t.Fatalf("hook total = %v, want 12", total)
	}
}

func TestEnginePipelinedOverlaps(t *testing.T) {
	k := sim.New()
	e := NewEngine(k, true)
	const prepT, compT = 10, 30
	var finished sim.Time
	prep := func(i int, done func()) { k.After(prepT, done) }
	compute := func(i int, done func()) { k.After(compT, done) }
	e.Run(4, prep, compute, func() { finished = k.Now() })
	k.Run()
	// Pipelined: total = prep + 4×compute (compute dominates).
	want := sim.Time(prepT + 4*compT)
	if finished != want {
		t.Fatalf("pipelined finish = %v, want %v", finished, want)
	}
}

func TestEngineSerialDoesNotOverlap(t *testing.T) {
	k := sim.New()
	e := NewEngine(k, false)
	var finished sim.Time
	prep := func(i int, done func()) { k.After(10, done) }
	compute := func(i int, done func()) { k.After(30, done) }
	e.Run(4, prep, compute, func() { finished = k.Now() })
	k.Run()
	if finished != 4*(10+30) {
		t.Fatalf("serial finish = %v, want 160", finished)
	}
}

func TestEnginePrepBoundPipeline(t *testing.T) {
	// When prep dominates, pipelined total = 4×prep + compute.
	k := sim.New()
	e := NewEngine(k, true)
	var finished sim.Time
	prep := func(i int, done func()) { k.After(50, done) }
	compute := func(i int, done func()) { k.After(10, done) }
	e.Run(4, prep, compute, func() { finished = k.Now() })
	k.Run()
	if finished != 4*50+10 {
		t.Fatalf("prep-bound finish = %v, want 210", finished)
	}
}

func TestEngineComputeOrderPreserved(t *testing.T) {
	// Compute(i) must never start before compute(i−1) finishes even if
	// preps race ahead.
	k := sim.New()
	e := NewEngine(k, true)
	var order []int
	prep := func(i int, done func()) { k.After(1, done) }
	compute := func(i int, done func()) {
		order = append(order, i)
		k.After(100, done)
	}
	e.Run(3, prep, compute, nil)
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("compute order = %v", order)
		}
	}
}

func TestEngineZeroBatches(t *testing.T) {
	k := sim.New()
	called := false
	NewEngine(k, true).Run(0, nil, nil, func() { called = true })
	k.Run()
	if !called {
		t.Fatal("allDone not called for zero batches")
	}
}
