package platform

import (
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/graph"
	"beacongnn/internal/metrics"
)

// testInstance returns a small amazon-like instance shared across tests.
func testInstance(t *testing.T) *dataset.Instance {
	t.Helper()
	d, err := dataset.ByName("amazon")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.Materialize(d, 4000, config.Default().Flash.PageSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func runKind(t *testing.T, inst *dataset.Instance, k Kind, batches int) *Result {
	t.Helper()
	cfg := config.Default()
	cfg.GNN.BatchSize = 32
	r, err := Simulate(k, cfg, inst, batches, 256)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	return r
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range All() {
		got, err := ByName(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("bogus platform accepted")
	}
}

func TestCapsMatchPaperTable(t *testing.T) {
	// Spot checks against Section VII-A's platform definitions.
	if c := CapsOf(CC); c.Sampler != SampleOnHost || c.ComputeSSD || c.OutOfOrder {
		t.Fatalf("CC caps = %+v", c)
	}
	if c := CapsOf(BG1); c.Sampler != SampleInFirmware || !c.ComputeSSD || c.OutOfOrder || c.DirectGraph {
		t.Fatalf("BG-1 caps = %+v", c)
	}
	if c := CapsOf(BGSP); c.Sampler != SampleOnDie || c.OutOfOrder {
		t.Fatalf("BG-SP caps = %+v", c)
	}
	if c := CapsOf(BG2); !c.HWRouting || !c.OutOfOrder || !c.DirectGraph || c.Sampler != SampleOnDie {
		t.Fatalf("BG-2 caps = %+v", c)
	}
}

func TestAllPlatformsComplete(t *testing.T) {
	inst := testInstance(t)
	for _, k := range All() {
		r := runKind(t, inst, k, 2)
		if r.Targets != 64 {
			t.Fatalf("%v completed %d targets, want 64", k, r.Targets)
		}
		if r.Batches != 2 {
			t.Fatalf("%v batches = %d", k, r.Batches)
		}
		if r.Throughput <= 0 || r.Elapsed <= 0 {
			t.Fatalf("%v produced empty result", k)
		}
		if r.FlashReads == 0 || r.Commands == 0 {
			t.Fatalf("%v did no flash work", k)
		}
	}
}

func TestFig14OrderingOnAmazon(t *testing.T) {
	// Figure 14's ordering: CC < GList < SmartSage < BG-1 ≤ BG-DG <
	// BG-SP < BG-DGSP < BG-2 (per-dataset; averages in EXPERIMENTS.md).
	inst := testInstance(t)
	tput := map[Kind]float64{}
	for _, k := range All() {
		tput[k] = runKind(t, inst, k, 4).Throughput
	}
	order := []Kind{CC, GList, SmartSage, BG1, BGDG, BGSP, BGDGSP, BG2}
	for i := 1; i < len(order); i++ {
		lo, hi := order[i-1], order[i]
		if tput[hi] <= tput[lo] {
			t.Errorf("%v (%.0f) should outperform %v (%.0f)", hi, tput[hi], lo, tput[lo])
		}
	}
	if ratio := tput[BG2] / tput[CC]; ratio < 5 {
		t.Errorf("BG-2 speedup over CC = %.1f, expected large (paper ≈ 8 on amazon-like)", ratio)
	}
}

func TestOutOfOrderOverlapsHops(t *testing.T) {
	// Figure 16: BG-SP serializes hops, BG-DGSP/BG-2 overlap them.
	inst := testInstance(t)
	barrier := runKind(t, inst, BGSP, 1)
	ooo := runKind(t, inst, BGDGSP, 1)
	if len(barrier.HopSpans) < 3 || len(ooo.HopSpans) < 3 {
		t.Fatalf("missing hop spans: %d vs %d", len(barrier.HopSpans), len(ooo.HopSpans))
	}
	if barrier.HopOverlap > 0.05 {
		t.Errorf("BG-SP hop overlap = %.3f, want ≈0 (strict barriers)", barrier.HopOverlap)
	}
	if ooo.HopOverlap < 0.3 {
		t.Errorf("BG-DGSP hop overlap = %.3f, want substantial", ooo.HopOverlap)
	}
}

func TestCCIsPCIeAndHostHeavy(t *testing.T) {
	// Figure 15f: CC's breakdown is dominated by PCIe + host; BG-2's by
	// flash-side phases.
	inst := testInstance(t)
	cc := runKind(t, inst, CC, 2)
	external := sharesOf(cc, metrics.PhasePCIe) + sharesOf(cc, metrics.PhaseHost)
	if external < 0.3 {
		t.Errorf("CC external share = %.2f, want dominant", external)
	}
	bg2 := runKind(t, inst, BG2, 2)
	if pcieShare := sharesOf(bg2, metrics.PhasePCIe); pcieShare > 0.10 {
		t.Errorf("BG-2 PCIe share = %.2f, want ≈0", pcieShare)
	}
}

func sharesOf(r *Result, p metrics.Phase) float64 {
	for _, s := range r.Phases {
		if s.Phase == p {
			return s.Fraction
		}
	}
	return 0
}

func cmdWait(r *Result) float64 {
	return float64(r.CmdBreakdown[metrics.PhaseWaitBefore] + r.CmdBreakdown[metrics.PhaseWaitAfter])
}

func TestFig17CommandWaitShape(t *testing.T) {
	// Figure 17: commands spend most of their lifetime waiting; BG-SP
	// "drastically reduces the waiting time of both types by cutting
	// down most flash transfers", and BG-2's hardware path waits less
	// than BG-SP's firmware path. (Our BG-DGSP-vs-BG-2 wait relation
	// deviates from the paper; see EXPERIMENTS.md.)
	inst := testInstance(t)
	bg1 := runKind(t, inst, BG1, 3)
	bgsp := runKind(t, inst, BGSP, 3)
	bg2 := runKind(t, inst, BG2, 3)
	if cmdWait(bgsp) >= cmdWait(bg1)/2 {
		t.Errorf("BG-SP wait %.0f not drastically below BG-1 wait %.0f", cmdWait(bgsp), cmdWait(bg1))
	}
	if cmdWait(bg2) >= cmdWait(bgsp) {
		t.Errorf("BG-2 wait %.0f not below BG-SP wait %.0f", cmdWait(bg2), cmdWait(bgsp))
	}
	// Waiting dominates flash time on every platform (the figure's
	// headline observation).
	for _, r := range []*Result{bg1, bgsp, bg2} {
		if cmdWait(r) < float64(r.CmdBreakdown[metrics.PhaseFlash]) {
			t.Errorf("%s: wait %.0f below flash %v — contention missing", r.Platform, cmdWait(r), r.CmdBreakdown[metrics.PhaseFlash])
		}
	}
}

func TestBG2EnergyEfficiencyBest(t *testing.T) {
	// Figure 19: BG-2's targets/s/W beats BG-1's and CC's.
	inst := testInstance(t)
	cc := runKind(t, inst, CC, 2)
	bg1 := runKind(t, inst, BG1, 2)
	bg2 := runKind(t, inst, BG2, 2)
	if !(bg2.Efficiency > bg1.Efficiency && bg1.Efficiency > cc.Efficiency) {
		t.Errorf("efficiency ordering broken: CC=%.1f BG-1=%.1f BG-2=%.1f",
			cc.Efficiency, bg1.Efficiency, bg2.Efficiency)
	}
	if cc.EnergyJ <= 0 || bg2.AvgPowerW <= 0 {
		t.Fatal("energy accounting empty")
	}
}

func TestPageGranularTransferDominatesBG1(t *testing.T) {
	// Challenge 2: BG-1 moves ~a full page per read; BG-SP moves only
	// sampled results — bus bytes per flash read must differ by ≥4×.
	inst := testInstance(t)
	bg1 := runKind(t, inst, BG1, 2)
	bgsp := runKind(t, inst, BGSP, 2)
	perRead1 := float64(bg1.BusBytes) / float64(bg1.FlashReads)
	perReadSP := float64(bgsp.BusBytes) / float64(bgsp.FlashReads)
	if perRead1 < 4000 {
		t.Errorf("BG-1 bus bytes/read = %.0f, want ≈ page size", perRead1)
	}
	if perRead1/perReadSP < 4 {
		t.Errorf("die sampling reduced per-read traffic only %.1f×", perRead1/perReadSP)
	}
}

func TestUtilizationTimelineRecorded(t *testing.T) {
	inst := testInstance(t)
	r := runKind(t, inst, BG2, 2)
	if len(r.DieTimeline) == 0 || len(r.ChanTimeline) == 0 {
		t.Fatal("Fig 15 timelines empty")
	}
	if r.MeanDies <= 0 || r.MeanDies > 128 {
		t.Fatalf("mean dies = %v", r.MeanDies)
	}
}

func TestDeterministicRuns(t *testing.T) {
	inst := testInstance(t)
	a := runKind(t, inst, BG2, 2)
	b := runKind(t, inst, BG2, 2)
	if a.Elapsed != b.Elapsed || a.FlashReads != b.FlashReads || a.Throughput != b.Throughput {
		t.Fatalf("same-seed runs differ: %v/%v vs %v/%v", a.Elapsed, a.FlashReads, b.Elapsed, b.FlashReads)
	}
}

func TestValidationErrors(t *testing.T) {
	inst := testInstance(t)
	cfg := config.Default()
	if _, err := Simulate(BG2, cfg, inst, 0, 0); err == nil {
		t.Error("zero batches accepted")
	}
	if _, err := NewSystem(BG2, cfg, nil, 0); err == nil {
		t.Error("nil instance accepted")
	}
	bad := cfg
	bad.Flash.PageSize = 8192 // dataset built with 4 KB pages
	if _, err := NewSystem(BG2, bad, inst, 0); err == nil {
		t.Error("page-size mismatch accepted")
	}
	bad2 := cfg
	bad2.GNN.Hops = 0
	if _, err := NewSystem(BG2, bad2, inst, 0); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestTraditionalSSDNarrowsBG2Gap(t *testing.T) {
	// Section VII-E: with 20 µs reads, BG-DGSP ≈ BG-2 (firmware is fast
	// enough; routing buys ~nothing).
	inst := testInstance(t)
	cfg := config.Traditional()
	cfg.GNN.BatchSize = 32
	dgsp, err := Simulate(BGDGSP, cfg, inst, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg2, err := Simulate(BG2, cfg, inst, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	gap := bg2.Throughput / dgsp.Throughput
	if gap > 1.25 {
		t.Errorf("traditional-SSD BG-2/BG-DGSP = %.2f, paper reports ≈1.0", gap)
	}
	// And on ULL flash the gap must be clearly larger.
	ull := config.Default()
	ull.GNN.BatchSize = 32
	dgspU, _ := Simulate(BGDGSP, ull, inst, 3, 0)
	bg2U, _ := Simulate(BG2, ull, inst, 3, 0)
	if bg2U.Throughput/dgspU.Throughput <= gap {
		t.Errorf("ULL gap (%.2f) not larger than traditional gap (%.2f)",
			bg2U.Throughput/dgspU.Throughput, gap)
	}
}

func TestAblationPipelining(t *testing.T) {
	// Section VI-D: overlapping prep(i+1) with compute(i) must beat the
	// serial schedule whenever compute is non-negligible.
	inst := testInstance(t)
	cfg := config.Default()
	cfg.GNN.BatchSize = 32
	on, err := Simulate(BG2, cfg, inst, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ablation.NoPipeline = true
	off, err := Simulate(BG2, cfg, inst, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if on.Throughput <= off.Throughput {
		t.Errorf("pipelining did not help: %.0f vs %.0f", on.Throughput, off.Throughput)
	}
}

func TestAblationCoalescing(t *testing.T) {
	// Coalescing avoids redundant secondary-section reads; disabling it
	// must increase flash reads on a secondary-heavy workload and never
	// increase throughput.
	d, err := dataset.ByName("reddit") // high degree → secondaries exist
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.Materialize(d, 3000, config.Default().Flash.PageSize, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.GNN.BatchSize = 32
	cfg.GNN.Fanout = 6 // more draws per node → more coalescing chances
	on, err := Simulate(BG2, cfg, inst, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ablation.NoCoalesce = true
	off, err := Simulate(BG2, cfg, inst, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if off.FlashReads <= on.FlashReads {
		t.Errorf("uncoalesced run read %d pages vs %d coalesced — expected more", off.FlashReads, on.FlashReads)
	}
}

func TestFunctionalSamplingValidAgainstGraph(t *testing.T) {
	// End-to-end functional check: every edge the die-level samplers
	// emit during a full BG-2 run must be a real edge of the graph, and
	// per-hop counts must match the fanout tree (modulo zero-degree
	// nodes, which cannot produce children).
	cfg := config.Default()
	cfg.GNN.BatchSize = 16
	res := checkFunctionalSampling(t, testInstance(t), cfg, 2)
	// And the tree size matches the flash work: ≥ 40 reads per target.
	if res.FlashReads < uint64(res.Targets*40) {
		t.Errorf("flash reads %d below subgraph size × targets", res.FlashReads)
	}
}

// TestFunctionalSamplingValidUnderRemapAndRelocation is the same check
// on a BG-2 run whose recovery ladder spare-remaps pages and relocates
// the whole DirectGraph mid-run. The die samplers read sections in
// place from the live image, so every command that reaches a moved page
// must still sample true edges with the full fanout tree.
func TestFunctionalSamplingValidUnderRemapAndRelocation(t *testing.T) {
	cfg := faultCfg()
	cfg.Fault.BaseRBER = 6.1e-3 // see TestUncorrectableRecoveryChain
	res := checkFunctionalSampling(t, testInstance(t), cfg, 1)
	if st := res.Faults; st.RemappedPages == 0 || st.Relocations == 0 {
		t.Fatalf("fault config moved no pages (remaps %d, relocations %d)", st.RemappedPages, st.Relocations)
	}
}

// TestFunctionalSamplingValidUnderRemapOnly is the same check under a
// dead die, whose pages are spare-remapped but never relocated: the
// physical page a command senses differs from the image page whose
// bytes the die reads, with no relocation in between.
func TestFunctionalSamplingValidUnderRemapOnly(t *testing.T) {
	cfg := faultCfg()
	cfg.Fault.DeadDies = []int{0}
	cfg.Fault.BaseRBER = 1e-7
	cfg.Fault.WearRBERPerPE = 0
	res := checkFunctionalSampling(t, testInstance(t), cfg, 2)
	if st := res.Faults; st.RemappedPages == 0 || st.Relocations != 0 {
		t.Fatalf("dead die gave %d remaps and %d relocations, want remaps only", st.RemappedPages, st.Relocations)
	}
}

// checkFunctionalSampling runs BG-2 with a sample observer and requires
// every sampled edge to exist in the graph and the per-hop child counts
// to match the fanout tree (the dataset has no zero-degree nodes).
func checkFunctionalSampling(t *testing.T, inst *dataset.Instance, cfg config.Config, batches int) *Result {
	t.Helper()
	s, err := NewSystem(BG2, cfg, inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	type edge struct {
		parent, child uint32
		hop           int
	}
	var edges []edge
	s.SetSampleObserver(func(parent, child uint32, hop int) {
		edges = append(edges, edge{parent, child, hop})
	})
	res, err := s.Run(batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 {
		t.Fatal("observer saw no sampling events")
	}
	g := inst.Graph
	hopCounts := map[int]int{}
	// A command read from the wrong section would still yield a real
	// edge — of the wrong node. So each parent below hop 1 must itself
	// have been sampled one hop earlier.
	sampled := map[edge]bool{}
	for _, e := range edges {
		sampled[edge{child: e.child, hop: e.hop}] = true
	}
	for _, e := range edges {
		if e.hop > 1 && !sampled[edge{child: e.parent, hop: e.hop - 1}] {
			t.Fatalf("hop-%d parent %d was never sampled at hop %d", e.hop, e.parent, e.hop-1)
		}
		found := false
		for _, nb := range g.Neighbors(graph.NodeID(e.parent)) {
			if uint32(nb) == e.child {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sampled edge %d→%d does not exist in the graph", e.parent, e.child)
		}
		if e.hop < 1 || e.hop > cfg.GNN.Hops {
			t.Fatalf("sampled child at impossible hop %d", e.hop)
		}
		hopCounts[e.hop]++
	}
	// Per hop h, each target contributes fanout^h children.
	n := batches * cfg.GNN.BatchSize
	for h := 1; h <= cfg.GNN.Hops; h++ {
		n *= cfg.GNN.Fanout
		if hopCounts[h] != n {
			t.Errorf("hop %d sampled %d children, want %d", h, hopCounts[h], n)
		}
	}
	return res
}

func TestBG2UtilizationAboveBGSP(t *testing.T) {
	// Figure 15: BG-2 raises flash resource utilization substantially
	// over BG-SP (the paper reports ≈ +76% on average).
	inst := testInstance(t)
	sp := runKind(t, inst, BGSP, 3)
	bg2 := runKind(t, inst, BG2, 3)
	if bg2.MeanDies < sp.MeanDies*1.3 {
		t.Errorf("BG-2 die utilization %.1f not well above BG-SP %.1f", bg2.MeanDies, sp.MeanDies)
	}
	if bg2.MeanChannels < sp.MeanChannels {
		t.Errorf("BG-2 channel utilization %.2f below BG-SP %.2f", bg2.MeanChannels, sp.MeanChannels)
	}
}

func TestDatasetBoundednessSplit(t *testing.T) {
	// Figure 15's dataset split: wide-feature datasets (reddit) are
	// channel-bound — their channel-utilization fraction exceeds their
	// die fraction — while short-feature datasets (OGBN) are die-bound.
	cfg := config.Default()
	cfg.GNN.BatchSize = 32
	run := func(name string) *Result {
		d, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := dataset.Materialize(d, 4000, cfg.Flash.PageSize, 42)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Simulate(BG2, cfg, inst, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	frac := func(r *Result) (die, ch float64) {
		return r.MeanDies / float64(cfg.Flash.TotalDies()), r.MeanChannels / float64(cfg.Flash.Channels)
	}
	rd, rc := frac(run("reddit"))
	od, oc := frac(run("OGBN"))
	if rc <= rd {
		t.Errorf("reddit should be channel-bound: die %.3f vs channel %.3f", rd, rc)
	}
	if od/oc <= rd/rc {
		t.Errorf("OGBN should be relatively more die-bound than reddit (%.2f vs %.2f)", od/oc, rd/rc)
	}
}

func TestFeaturePathPerPlatform(t *testing.T) {
	// Table I's offload split, verified from PCIe payload volume:
	// CC ships everything to the host; SmartSage still ships features
	// (more than GList, which keeps them in-SSD); the full-offload BG-X
	// designs move almost nothing besides target lists.
	inst := testInstance(t)
	per := map[Kind]float64{}
	for _, k := range All() {
		r := runKind(t, inst, k, 2)
		per[k] = float64(r.PCIeBytes) / float64(r.Targets)
	}
	featPerTarget := float64(40 * inst.Desc.FeatureDim * 2)
	if per[CC] < featPerTarget {
		t.Errorf("CC moved %.0f B/target over PCIe, below even the feature volume %.0f", per[CC], featPerTarget)
	}
	if per[SmartSage] <= per[GList] {
		t.Errorf("SmartSage PCIe %.0f ≤ GList %.0f; feature shipping should dominate", per[SmartSage], per[GList])
	}
	for _, k := range []Kind{BG1, BGDG, BGSP, BGDGSP, BG2} {
		if per[k] > per[CC]/10 {
			t.Errorf("%v moved %.0f B/target over PCIe; full offload should be ≪ CC's %.0f", k, per[k], per[CC])
		}
	}
}

func TestBGDGReadsSecondaryPages(t *testing.T) {
	// BG-DG's firmware sampling must issue extra coalesced secondary
	// reads on a high-degree graph (DirectGraph-aware drawing), so its
	// flash reads exceed the 40-per-target floor while BG-1's raw-format
	// reads do not depend on spilled sections.
	d, err := dataset.ByName("movielens") // degree 500 → spilled primaries
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.Materialize(d, 3000, config.Default().Flash.PageSize, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.GNN.BatchSize = 32
	bgdg, err := Simulate(BGDG, cfg, inst, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	spilled := 0
	for i := range inst.Build.Plans {
		if inst.Build.Plans[i].SecCount > 0 {
			spilled++
		}
	}
	if spilled == 0 {
		t.Skip("fixture produced no spilled nodes")
	}
	if bgdg.FlashReads <= uint64(bgdg.Targets*40) {
		t.Errorf("BG-DG reads %d ≤ 40/target on a spilled dataset — secondary reads missing", bgdg.FlashReads)
	}
}
