// Metamorphic and property-based validation of the simulator, run
// through the invariant checker: every simulation here executes under
// platform.SimulateCheckedCtx, so a conservation or sanity violation fails
// the test with the named invariant even when the metamorphic relation
// itself holds.
//
// The relations encode physics the paper relies on rather than golden
// numbers: more hardware never makes a workload slower, injected faults
// never make it faster, and BG-2.0 dominates BG-1.0 (Fig. 14).
// Tolerances are documented at each assertion; they absorb the small
// legitimate reorderings that a geometry change induces in the
// deterministic sampler RNG draw sequence (observed ≤3% — see the dies
// relation), not measurement noise: the simulator is deterministic.
//
// This file lives in package invariant_test because the checks import
// internal/platform, which itself imports internal/invariant.
package invariant_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/exp"
	"beacongnn/internal/platform"
)

// metaNodes/metaBatches bound every metamorphic simulation. 2500 nodes
// × 2 batches keeps a single run under ~100ms while still exercising
// multi-hop fan-out across all dies.
const (
	metaNodes   = 2500
	metaBatches = 2
)

// instCache shares materialized dataset instances across tests; graph
// materialization dominates small-simulation runtime.
var (
	instMu    sync.Mutex
	instCache = map[string]*dataset.Instance{}
)

func materialize(t *testing.T, name string, nodes, pageSize int, seed uint64) *dataset.Instance {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%d/%d", name, nodes, pageSize, seed)
	instMu.Lock()
	defer instMu.Unlock()
	if inst, ok := instCache[key]; ok {
		return inst
	}
	d, err := dataset.ByName(name)
	if err != nil {
		t.Fatalf("dataset %q: %v", name, err)
	}
	inst, err := dataset.Materialize(d, nodes, pageSize, seed)
	if err != nil {
		t.Fatalf("materialize %s: %v", name, err)
	}
	instCache[key] = inst
	return inst
}

// simChecked runs one simulation under the invariant checker and fails
// the test on any violation or setup error.
func simChecked(t *testing.T, kind platform.Kind, cfg config.Config, inst *dataset.Instance) *platform.Result {
	t.Helper()
	res, err := platform.SimulateCheckedCtx(context.Background(), kind, cfg, inst, metaBatches, 64)
	if err != nil {
		t.Fatalf("%s (%d ch × %d dies): %v", kind, cfg.Flash.Channels, cfg.Flash.DiesPerChannel, err)
	}
	return res
}

// Adding flash channels must never increase end-to-end latency: the
// workload is fixed, and a wider interconnect only removes contention.
// The relation holds strictly on the current defaults (BG-2: 2.65ms →
// 539µs over 2→16 channels; BG-1: 14.8ms → 2.8ms); CC flattens once it
// is host-bound (equal at 8 and 16 channels), so the assertion is
// non-strict with a 1% slack for RNG-draw reordering.
func TestMetamorphicChannelsNeverSlower(t *testing.T) {
	channels := []int{2, 4, 8, 16}
	if testing.Short() {
		channels = []int{4, 16}
	}
	inst := materialize(t, "amazon", metaNodes, config.Default().Flash.PageSize, config.Default().Seed)
	for _, kind := range []platform.Kind{platform.BG2, platform.BG1, platform.CC} {
		prev := platform.Result{}
		for i, ch := range channels {
			cfg := config.Default()
			cfg.Flash.Channels = ch
			res := simChecked(t, kind, cfg, inst)
			if i > 0 && float64(res.Elapsed) > float64(prev.Elapsed)*1.01 {
				t.Errorf("%s: %d channels ran in %v but %d channels in %v — more channels made it slower",
					kind, channels[i-1], prev.Elapsed, ch, res.Elapsed)
			}
			prev = *res
		}
	}
}

// Adding dies per channel must never meaningfully increase latency.
// Unlike the channel sweep this relation is not strictly monotone:
// changing die count changes page placement and therefore the order of
// sampler RNG draws, which can shift BG-1 by a few percent (observed:
// 2.869ms at 1 die vs 2.953ms at 2 dies, +2.9%). BG-2's router
// dissolves that sensitivity, so it gets a tight 1% slack; BG-1 and CC
// get 5%.
func TestMetamorphicDiesNeverSlower(t *testing.T) {
	dies := []int{1, 2, 4, 8}
	if testing.Short() {
		dies = []int{1, 8}
	}
	inst := materialize(t, "amazon", metaNodes, config.Default().Flash.PageSize, config.Default().Seed)
	for _, tc := range []struct {
		kind  platform.Kind
		slack float64
	}{
		{platform.BG2, 1.01},
		{platform.BG1, 1.05},
		{platform.CC, 1.05},
	} {
		prev := platform.Result{}
		for i, d := range dies {
			cfg := config.Default()
			cfg.Flash.DiesPerChannel = d
			res := simChecked(t, tc.kind, cfg, inst)
			if i > 0 && float64(res.Elapsed) > float64(prev.Elapsed)*tc.slack {
				t.Errorf("%s: %d dies/channel ran in %v but %d in %v — more dies made it >%.0f%% slower",
					tc.kind, dies[i-1], prev.Elapsed, d, res.Elapsed, (tc.slack-1)*100)
			}
			prev = *res
		}
	}
}

// Enabling the NAND fault model must never make a run faster: faults
// only add retry senses, soft-decode core time, and recovery work. The
// relation is strict for the BG platforms (flash time dominates their
// critical path); CC gets a 1% slack because its retries can hide
// under host-side transfer time while still perturbing RNG draw order
// (observed: 8.535ms faulted vs 8.548ms clean, −0.15%).
func TestMetamorphicFaultsNeverFaster(t *testing.T) {
	inst := materialize(t, "amazon", metaNodes, config.Default().Flash.PageSize, config.Default().Seed)
	for _, tc := range []struct {
		kind  platform.Kind
		slack float64 // faulted must be ≥ clean × slack
	}{
		{platform.BG2, 1.0},
		{platform.BG1, 1.0},
		{platform.CC, 0.99},
	} {
		clean := simChecked(t, tc.kind, config.Default(), inst)
		cfg := config.Default()
		cfg.Fault.Enabled = true
		cfg.Fault.BaseRBER = 2e-3
		faulted := simChecked(t, tc.kind, cfg, inst)
		if float64(faulted.Elapsed) < float64(clean.Elapsed)*tc.slack {
			t.Errorf("%s: faulted run %v beat clean run %v — fault injection made it faster",
				tc.kind, faulted.Elapsed, clean.Elapsed)
		}
		if faulted.Faults == nil || faulted.Faults.RetryReads == 0 {
			t.Errorf("%s: fault model produced no retries at RBER 2e-3 — relation tested vacuously", tc.kind)
		}
	}
}

// BG-2.0 must dominate BG-1.0 on every dataset, the paper's headline
// Fig. 14 result. The measured margin is ~5× on amazon; requiring 2×
// leaves room for future parameter recalibration while still failing
// on any regression that inverts the ordering.
func TestMetamorphicBG2DominatesBG1(t *testing.T) {
	datasets := []string{"amazon", "reddit"}
	if testing.Short() {
		datasets = datasets[:1]
	}
	for _, ds := range datasets {
		inst := materialize(t, ds, metaNodes, config.Default().Flash.PageSize, config.Default().Seed)
		bg1 := simChecked(t, platform.BG1, config.Default(), inst)
		bg2 := simChecked(t, platform.BG2, config.Default(), inst)
		if bg2.Throughput < 2*bg1.Throughput {
			t.Errorf("%s: BG-2 %.0f targets/s vs BG-1 %.0f — dominance margin below 2×",
				ds, bg2.Throughput, bg1.Throughput)
		}
	}
}

// Every reported number — energy breakdown ordering included — must be
// identical whether simulations fan out over 1 or 4 workers: -parallel
// changes scheduling of whole simulations, never the arithmetic inside
// one. Both engines run checked, so the comparison also proves checked
// results equal each other across widths.
func TestMetamorphicParallelWidthStable(t *testing.T) {
	inst := materialize(t, "amazon", metaNodes, config.Default().Flash.PageSize, config.Default().Seed)
	kinds := []platform.Kind{platform.CC, platform.BG1, platform.BG2}

	run := func(workers int) []*platform.Result {
		eng := exp.New(workers)
		eng.EnableChecks()
		results, err := exp.Map(kinds, func(k platform.Kind) (*platform.Result, error) {
			return eng.Simulate(k, config.Default(), inst, metaBatches, 64)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return results
	}
	seq, par := run(1), run(4)
	for i, k := range kinds {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("%s: result differs between -parallel 1 and -parallel 4", k)
		}
		if len(seq[i].EnergyByCmp) == 0 {
			t.Errorf("%s: empty energy breakdown", k)
		}
		for j, sh := range seq[i].EnergyByCmp {
			if sh.Joules < 0 {
				t.Errorf("%s: component %s negative energy %g J", k, sh.Component, sh.Joules)
			}
			if j > 0 && sh.Fraction > seq[i].EnergyByCmp[j-1].Fraction {
				t.Errorf("%s: energy breakdown not sorted by share at %s", k, sh.Component)
			}
		}
	}
}

// Property harness: seeded random configurations across the six
// platforms of the paper's main comparison must all satisfy every
// invariant. The generator stays inside validated ranges (geometry,
// cores, GNN shape, fault model on/off) so any failure is a simulator
// bug, not an invalid config. -short trims the draw count, not the
// platform set.
func TestPropertyRandomConfigs(t *testing.T) {
	kinds := []platform.Kind{
		platform.CC, platform.BG1, platform.BGDG,
		platform.BGSP, platform.BGDGSP, platform.BG2,
	}
	draws := 6
	if testing.Short() {
		draws = 2
	}
	rng := rand.New(rand.NewSource(20260805)) // fixed: failures must reproduce
	pageSize := config.Default().Flash.PageSize
	for d := 0; d < draws; d++ {
		cfg := config.Default()
		cfg.Flash.Channels = []int{2, 4, 8, 16}[rng.Intn(4)]
		cfg.Flash.DiesPerChannel = []int{1, 2, 4, 8}[rng.Intn(4)]
		cfg.Flash.PlanesPerDie = 1 + rng.Intn(2)
		cfg.Firmware.Cores = 1 + rng.Intn(8)
		cfg.GNN.Hops = 2 + rng.Intn(2)
		cfg.GNN.Fanout = 2 + rng.Intn(3)
		cfg.GNN.BatchSize = []int{16, 32, 64}[rng.Intn(3)]
		cfg.Seed = uint64(rng.Int63())
		if rng.Intn(2) == 1 {
			cfg.Fault.Enabled = true
			cfg.Fault.BaseRBER = []float64{5e-4, 2e-3}[rng.Intn(2)]
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("draw %d generated an invalid config: %v", d, err)
		}
		inst := materialize(t, "amazon", 1500, pageSize, config.Default().Seed)
		for _, k := range kinds {
			if _, err := platform.SimulateCheckedCtx(context.Background(), k, cfg, inst, metaBatches, 64); err != nil {
				t.Errorf("draw %d (%d ch × %d dies × %d planes, %d cores, hops %d fanout %d batch %d, faults %v): %s: %v",
					d, cfg.Flash.Channels, cfg.Flash.DiesPerChannel, cfg.Flash.PlanesPerDie,
					cfg.Firmware.Cores, cfg.GNN.Hops, cfg.GNN.Fanout, cfg.GNN.BatchSize,
					cfg.Fault.Enabled, k, err)
			}
		}
	}
}
