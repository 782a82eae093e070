package platform

import (
	"strings"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/pool"
	"beacongnn/internal/sampler"
)

// TestWarmRunConstructsNoPooledObjects checks that every run hands its
// storage back: on a warm process, a second run of the same kind draws
// every pooled object (System state, flash senses, router commands) from
// the lists the first one returned, and takes its kernel's server set,
// its TRNG slab and its router's FIFOs off their shelves, constructing
// none. The same holds for the device-mode entry points that own a
// flash backend directly.
func TestWarmRunConstructsNoPooledObjects(t *testing.T) {
	if pool.Disabled() {
		t.Skip("pooling disabled")
	}
	inst := testInstance(t)
	cfg := config.Default()
	cfg.GNN.BatchSize = 32
	type entry struct {
		name string
		run  func() error
	}
	var entries []entry
	for _, k := range All() {
		entries = append(entries, entry{k.String(), func() error {
			_, err := Simulate(k, cfg, inst, 2, 64)
			return err
		}})
	}
	entries = append(entries,
		entry{"RunWithRegularIO", func() error {
			s, err := NewSystem(BG2, cfg, inst, 0)
			if err == nil {
				_, _, err = s.RunWithRegularIO(2)
			}
			return err
		}},
		entry{"RegularIOBaseline", func() error {
			_, err := RegularIOBaseline(cfg)
			return err
		}},
		entry{"SimulateConstruction", func() error {
			_, err := SimulateConstruction(cfg, inst)
			return err
		}},
	)
	for _, e := range entries {
		if err := e.run(); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		before := pool.Constructed()
		if err := e.run(); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if n := pool.Constructed() - before; n != 0 {
			t.Errorf("%s: warm run constructed %d pooled objects, want 0", e.name, n)
		}
	}
}

// TestWarmSimulateAllocs pins what a warm simulation allocates, from
// NewSystem through the built Result: with servers, TRNGs, FIFOs and
// batch buffers recycled, what is left is the System's own objects and
// the Result's (timelines, breakdowns, histograms), ~100 allocations.
func TestWarmSimulateAllocs(t *testing.T) {
	if pool.Disabled() {
		t.Skip("pooling disabled")
	}
	inst := testInstance(t)
	cfg := config.Default()
	cfg.GNN.BatchSize = 32
	for _, k := range All() {
		simulate := func() {
			if _, err := Simulate(k, cfg, inst, 2, 64); err != nil {
				t.Fatalf("%v: %v", k, err)
			}
		}
		simulate() // the process's first run of the kind builds the objects
		simulate() // and the arrays grow to this workload's peaks
		if n := testing.AllocsPerRun(5, simulate); n > 125 {
			t.Errorf("%v: warm Simulate allocated %.0f times, want at most 125", k, n)
		}
	}
}

// TestRoutedCommandForUnknownBatchPanics keeps the router's hardware
// data path honest: a command naming a batch that was never started,
// or one that has already finished, is a wiring bug and must panic
// rather than be charged to some other batch.
func TestRoutedCommandForUnknownBatchPanics(t *testing.T) {
	inst := testInstance(t)
	cfg := config.Default()
	cfg.GNN.BatchSize = 16
	s, err := NewSystem(BG2, cfg, inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int32{0, 1, 7, -1} { // 0 has finished
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "routed command for unknown batch") {
					t.Errorf("batch %d: recovered %q, want the unknown-batch panic", batch, msg)
				}
			}()
			s.rtr.Exec(sampler.Command{Batch: batch}, func() {}, func([]sampler.Command) {})
		}()
	}
}
