package platform

import (
	"context"
	"errors"
	"strings"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/energy"
	"beacongnn/internal/sim"
)

func TestSimulateConstruction(t *testing.T) {
	inst := testInstance(t)
	cfg := config.Default()
	res, err := SimulateConstruction(cfg, inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != len(inst.Build.Pages) {
		t.Fatalf("flushed %d pages, build has %d", res.Pages, len(inst.Build.Pages))
	}
	if res.Elapsed <= 0 || res.Bandwidth <= 0 {
		t.Fatalf("empty result %+v", res)
	}
	// Flush bandwidth is bounded by PCIe and by program throughput
	// (dies × planes × pageSize / programLatency); it must be within both.
	maxProgram := float64(cfg.Flash.TotalDies()*cfg.Flash.PlanesPerDie) *
		float64(cfg.Flash.PageSize) / cfg.Flash.ProgramLatency.Seconds()
	if res.Bandwidth > cfg.PCIe.Bandwidth || res.Bandwidth > maxProgram {
		t.Fatalf("bandwidth %.0f exceeds physical bounds (PCIe %.0f, program %.0f)",
			res.Bandwidth, cfg.PCIe.Bandwidth, maxProgram)
	}
	// And it should achieve a decent fraction of the program bound —
	// construction parallelizes across all dies.
	if res.Bandwidth < maxProgram/4 {
		t.Fatalf("bandwidth %.0f far below program bound %.0f — flush not parallel", res.Bandwidth, maxProgram)
	}
}

func TestConstructionValidation(t *testing.T) {
	if _, err := SimulateConstruction(config.Default(), nil); err == nil {
		t.Fatal("nil instance accepted")
	}
}

func TestRegularIOBaseline(t *testing.T) {
	lat, err := RegularIOBaseline(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	// sense 3 µs + page transfer ~5.3 µs + firmware + DRAM + PCIe:
	// roughly 9–15 µs on an idle device.
	if lat < 8*sim.Microsecond || lat > 20*sim.Microsecond {
		t.Fatalf("idle read latency = %v, want ≈10 µs", lat)
	}
}

func TestAccelerationModeDefersRegularIO(t *testing.T) {
	// Section VI-G: requests arriving mid-batch wait for the batch
	// boundary, so their latency is dominated by the deferral and far
	// exceeds the idle-device latency.
	inst := testInstance(t)
	cfg := config.Default()
	cfg.GNN.BatchSize = 32
	s, err := NewSystem(BG2, cfg, inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The regular reads are metered: each moves one page through the
	// SSD DRAM port and over PCIe (BG-2 sends the host nothing else of
	// that size).
	page := float64(cfg.Flash.PageSize)
	pcieReads, dramReads := 0, 0
	s.meter.OnAdd = func(c energy.Component, j float64) {
		switch {
		case c == energy.PCIe && j == page*cfg.Energy.PCIePerByte:
			pcieReads++
		case c == energy.SSDDRAM && j == page*cfg.Energy.DRAMPerByte:
			dramReads++
		}
	}
	res, stats, err := s.RunWithRegularIO(3)
	if err != nil {
		t.Fatal(err)
	}
	if pcieReads != 3 || dramReads < 3 {
		t.Fatalf("metered %d PCIe and %d DRAM page moves, want 3 and at least 3", pcieReads, dramReads)
	}
	if res.Batches != 3 || stats.Count != 3 {
		t.Fatalf("batches=%d ios=%d", res.Batches, stats.Count)
	}
	if stats.Deferred != 3 {
		t.Fatalf("deferred %d of 3 arrivals; all mid-batch arrivals must wait", stats.Deferred)
	}
	idle, err := RegularIOBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MeanLatency < 5*idle {
		t.Fatalf("acceleration-mode latency %v not clearly above idle %v", stats.MeanLatency, idle)
	}
	if stats.MeanDeferral >= stats.MeanLatency {
		t.Fatal("deferral accounting exceeds total latency")
	}
}

// TestRegularIORunErrors: acceleration mode ends a failed run the way
// Run does. A run that exhausts the spare region reports the FTL's
// error, and a cancelled context reports context.Canceled; neither is a
// deadlock.
func TestRegularIORunErrors(t *testing.T) {
	inst := testInstance(t)
	cfg := config.Default()
	cfg.Fault.Enabled = true
	cfg.Fault.BaseRBER = 2e-2
	s, err := NewSystem(CC, cfg, inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunWithRegularIO(8); err == nil || !strings.Contains(err.Error(), "spare region exhausted") {
		t.Fatalf("spare-exhausting run returned %v, want the FTL's error", err)
	}

	s, err = NewSystem(BG2, config.Default(), inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.BindContext(ctx)
	if _, _, err := s.RunWithRegularIO(2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestTargetSkewConcentratesLoad(t *testing.T) {
	// Hot-node (Zipf) target selection funnels reads onto few pages and
	// therefore few dies, hurting BG-2 throughput vs uniform selection.
	inst := testInstance(t)
	uniform := config.Default()
	uniform.GNN.BatchSize = 32
	skewed := uniform
	skewed.GNN.TargetSkew = 1.4
	u, err := Simulate(BG2, uniform, inst, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	z, err := Simulate(BG2, skewed, inst, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if z.Throughput >= u.Throughput {
		t.Fatalf("skewed targets did not hurt: %.0f vs %.0f", z.Throughput, u.Throughput)
	}
	if z.MeanDies >= u.MeanDies {
		t.Fatalf("skewed run used more dies on average (%.1f vs %.1f)", z.MeanDies, u.MeanDies)
	}
}
