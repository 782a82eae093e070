package platform

import (
	"strings"
	"sync"
	"testing"

	"beacongnn/internal/config"
)

func faultCfg() config.Config {
	cfg := config.Default()
	cfg.GNN.BatchSize = 16
	cfg.Fault.Enabled = true
	return cfg
}

func TestFaultDisabledHasNoStats(t *testing.T) {
	inst := testInstance(t)
	r := runKind(t, inst, BG2, 1)
	if r.Faults != nil {
		t.Fatalf("disabled fault model reported stats: %+v", *r.Faults)
	}
}

func TestFaultCleanAtDefaultRBER(t *testing.T) {
	// The default RBER (fresh device) keeps essentially every read in the
	// hard-ECC regime: the model runs but perturbs nothing.
	inst := testInstance(t)
	res, err := Simulate(BG2, faultCfg(), inst, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Faults
	if st == nil || st.Reads == 0 {
		t.Fatal("fault stats missing on an enabled run")
	}
	if st.CleanReads != st.Reads {
		t.Fatalf("fresh device: %d of %d reads not clean", st.Reads-st.CleanReads, st.Reads)
	}
	if st.RetiredBlocks != 0 || st.DegradedReads != 0 {
		t.Fatalf("fresh device recovered blocks: %+v", *st)
	}
}

// TestFaultDeterminism runs the same fault-injected simulation three
// times — once alone, then twice concurrently against the same shared
// instance — and requires identical results and counters. Under -race
// this also proves fault-enabled systems do not share mutable state
// (each clones the DirectGraph image).
func TestFaultDeterminism(t *testing.T) {
	inst := testInstance(t)
	cfg := faultCfg()
	cfg.Fault.BaseRBER = 2e-3 // deep enough for a steady retry mix

	ref, err := Simulate(BG2, cfg, inst, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Faults.RetryReads == 0 {
		t.Fatal("fixture produced no retry reads; determinism check is vacuous")
	}
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Simulate(BG2, cfg, inst, 2, 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
		r := results[i]
		if r.Elapsed != ref.Elapsed || r.FlashReads != ref.FlashReads || r.Throughput != ref.Throughput {
			t.Fatalf("run %d diverged: %v/%d vs %v/%d", i, r.Elapsed, r.FlashReads, ref.Elapsed, ref.FlashReads)
		}
		if *r.Faults != *ref.Faults {
			t.Fatalf("run %d fault counters diverged:\n%+v\n%+v", i, *r.Faults, *ref.Faults)
		}
	}
}

// TestUncorrectableRecoveryChain drives reads through the full recovery
// ladder on both data paths: an RBER high enough that some commands fail
// every re-sense, forcing retirement, spare remapping, DirectGraph
// relocation, and degraded-read completion — with the run still
// finishing every target.
func TestUncorrectableRecoveryChain(t *testing.T) {
	inst := testInstance(t)
	cfg := faultCfg()
	cfg.Fault.BaseRBER = 6.1e-3 // λ ≈ soft-decode limit: ~half the senses uncorrectable
	for _, k := range []Kind{BG2, BGDG} {
		res, err := Simulate(k, cfg, inst, 1, 0)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Targets != cfg.GNN.BatchSize {
			t.Fatalf("%v completed %d targets, want %d", k, res.Targets, cfg.GNN.BatchSize)
		}
		st := res.Faults
		if st.Uncorrectable == 0 || st.SoftReads == 0 {
			t.Fatalf("%v: ECC tiers unexercised: %+v", k, *st)
		}
		if st.DegradedReads == 0 {
			t.Fatalf("%v: no command exhausted the retry ladder: %+v", k, *st)
		}
		if st.RetiredBlocks == 0 || st.RemappedPages == 0 {
			t.Fatalf("%v: recovery did not retire/remap: %+v", k, *st)
		}
		if st.Relocations == 0 {
			t.Fatalf("%v: wear retirements never triggered relocation: %+v", k, *st)
		}
		if st.RemappedPages < st.RetiredBlocks {
			t.Fatalf("%v: %d retirements but %d remaps", k, st.RetiredBlocks, st.RemappedPages)
		}
	}
}

func TestDeadDieRemapsAndCompletes(t *testing.T) {
	inst := testInstance(t)
	cfg := faultCfg()
	cfg.Fault.DeadDies = []int{0, 1, 2, 3}
	res, err := Simulate(BG2, cfg, inst, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Faults
	if st.DeadDieReads == 0 {
		t.Fatalf("no sense ever hit the dead dies: %+v", *st)
	}
	if st.RemappedPages == 0 || st.DegradedReads == 0 {
		t.Fatalf("dead-die pages not remapped into spares: %+v", *st)
	}
	if st.Relocations != 0 {
		t.Fatalf("die outage triggered relocation (would churn onto the same dead die): %+v", *st)
	}
	if res.Targets != 2*cfg.GNN.BatchSize {
		t.Fatalf("outage run lost targets: %d", res.Targets)
	}
}

func TestDeadChannelReroutes(t *testing.T) {
	inst := testInstance(t)
	cfg := faultCfg()
	cfg.Fault.DeadChannels = []int{0}
	res, err := Simulate(BG2, cfg, inst, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.ChannelReroutes == 0 {
		t.Fatalf("no traffic rerouted around the dead channel: %+v", *res.Faults)
	}
	if res.Targets != cfg.GNN.BatchSize {
		t.Fatalf("channel outage lost targets: %d", res.Targets)
	}
}

// TestBatchErrorPropagation: a command addressing a hole in the image
// fails the run with context instead of panicking out of the event loop.
func TestBatchErrorPropagation(t *testing.T) {
	inst := testInstance(t)
	cfg := config.Default()
	cfg.GNN.BatchSize = 16
	s, err := NewSystem(BG2, cfg, inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hollow out a private copy of the image: every die command now
	// addresses an unmaterialized page.
	s.build = s.build.Clone()
	clear(s.build.Pages)
	if _, err := s.Run(1); err == nil || !strings.Contains(err.Error(), "unmaterialized") {
		t.Fatalf("hollow image run returned %v, want unmaterialized-page error", err)
	}
}
