package beacongnn

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section VII). Each benchmark simulates at reduced scale
// and reports the figure's headline quantity via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation's
// shape. Full-scale reports come from `beaconbench -exp all`.

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/core"
	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/flash"
	"beacongnn/internal/graph"
	"beacongnn/internal/metrics"
	"beacongnn/internal/platform"
	"beacongnn/internal/sampler"
	"beacongnn/internal/sim"
	"beacongnn/internal/xrand"
)

const (
	benchNodes   = 6000
	benchBatches = 3
)

var (
	benchInstOnce sync.Once
	benchInsts    map[string]*dataset.Instance
)

func benchInstance(b *testing.B, name string) *dataset.Instance {
	b.Helper()
	benchInstOnce.Do(func() {
		benchInsts = map[string]*dataset.Instance{}
		cfg := config.Default()
		for _, d := range dataset.All() {
			inst, err := dataset.Materialize(d, benchNodes, cfg.Flash.PageSize, cfg.Seed)
			if err != nil {
				panic(err)
			}
			benchInsts[d.Name] = inst
		}
	})
	inst, ok := benchInsts[name]
	if !ok {
		b.Fatalf("no instance %q", name)
	}
	return inst
}

func benchSimulate(b *testing.B, k platform.Kind, cfg config.Config, name string) *platform.Result {
	b.Helper()
	var last *platform.Result
	for i := 0; i < b.N; i++ {
		r, err := platform.Simulate(k, cfg, benchInstance(b, name), benchBatches, 0)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	return last
}

// BenchmarkFig7ChannelContention regenerates Figure 7a's two anchor
// points: throughput gain and latency blow-up from 1 to 8 active dies.
func BenchmarkFig7ChannelContention(b *testing.B) {
	cfg := config.Default().Flash
	var gain, latRatio float64
	for i := 0; i < b.N; i++ {
		one, err := flash.RunChannelContention(cfg, 1, sim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		eight, err := flash.RunChannelContention(cfg, 8, sim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		gain = eight.Throughput/one.Throughput - 1
		latRatio = float64(eight.AvgLatency) / float64(one.AvgLatency)
	}
	b.ReportMetric(gain*100, "tput-gain-%")
	b.ReportMetric(latRatio, "latency-ratio")
}

// BenchmarkFig14Throughput regenerates Figure 14: one sub-benchmark per
// platform on each dataset, reporting absolute and CC-normalized
// throughput.
func BenchmarkFig14Throughput(b *testing.B) {
	cfg := config.Default()
	for _, d := range dataset.All() {
		ccBase := 0.0
		for _, k := range platform.All() {
			b.Run(fmt.Sprintf("%s/%s", d.Name, k), func(b *testing.B) {
				r := benchSimulate(b, k, cfg, d.Name)
				b.ReportMetric(r.Throughput, "targets/s")
				if k == platform.CC {
					ccBase = r.Throughput
				} else if ccBase > 0 {
					b.ReportMetric(r.Throughput/ccBase, "norm-vs-CC")
				}
			})
		}
	}
}

// BenchmarkFig15Utilization regenerates Figure 15a–e's utilization means.
func BenchmarkFig15Utilization(b *testing.B) {
	cfg := config.Default()
	for _, k := range []platform.Kind{platform.BGSP, platform.BGDGSP, platform.BG2} {
		b.Run(k.String(), func(b *testing.B) {
			r := benchSimulate(b, k, cfg, "amazon")
			b.ReportMetric(r.MeanDies, "mean-dies")
			b.ReportMetric(r.MeanChannels, "mean-channels")
		})
	}
}

// BenchmarkFig15fBreakdown regenerates Figure 15f's dominant phase
// fractions for CC and BG-2 on amazon.
func BenchmarkFig15fBreakdown(b *testing.B) {
	cfg := config.Default()
	cc := benchSimulate(b, platform.CC, cfg, "amazon")
	bg2 := benchSimulate(b, platform.BG2, cfg, "amazon")
	share := func(r *platform.Result, p metrics.Phase) float64 {
		for _, s := range r.Phases {
			if s.Phase == p {
				return s.Fraction
			}
		}
		return 0
	}
	b.ReportMetric(share(cc, metrics.PhasePCIe)*100, "CC-pcie-%")
	b.ReportMetric(share(bg2, metrics.PhaseFlash)*100, "BG2-flash-%")
}

// BenchmarkFig16HopOverlap regenerates Figure 16's overlap contrast.
func BenchmarkFig16HopOverlap(b *testing.B) {
	cfg := config.Default()
	barrier := benchSimulate(b, platform.BGSP, cfg, "amazon")
	ooo := benchSimulate(b, platform.BG2, cfg, "amazon")
	b.ReportMetric(barrier.HopOverlap, "BGSP-overlap")
	b.ReportMetric(ooo.HopOverlap, "BG2-overlap")
}

// BenchmarkFig17CommandLifetime regenerates Figure 17's mean lifetimes.
func BenchmarkFig17CommandLifetime(b *testing.B) {
	cfg := config.Default()
	for _, k := range []platform.Kind{platform.BG1, platform.BGSP, platform.BGDGSP, platform.BG2} {
		b.Run(k.String(), func(b *testing.B) {
			r := benchSimulate(b, k, cfg, "amazon")
			b.ReportMetric(r.CmdLifetime.Micros(), "lifetime-µs")
			wait := r.CmdBreakdown[metrics.PhaseWaitBefore] + r.CmdBreakdown[metrics.PhaseWaitAfter]
			b.ReportMetric(wait.Micros(), "wait-µs")
		})
	}
}

// BenchmarkFig18BatchSize regenerates Figure 18a for BG-DGSP and BG-2.
func BenchmarkFig18BatchSize(b *testing.B) {
	for _, bs := range []int{32, 64, 128, 256} {
		for _, k := range []platform.Kind{platform.BGDGSP, platform.BG2} {
			b.Run(fmt.Sprintf("%s/batch-%d", k, bs), func(b *testing.B) {
				cfg := config.Default()
				cfg.GNN.BatchSize = bs
				r := benchSimulate(b, k, cfg, "amazon")
				b.ReportMetric(r.Throughput, "targets/s")
			})
		}
	}
}

// BenchmarkFig18ChannelBW regenerates Figure 18b.
func BenchmarkFig18ChannelBW(b *testing.B) {
	for _, bw := range []float64{333e6, 800e6, 1600e6, 2400e6} {
		for _, k := range []platform.Kind{platform.BG1, platform.BG2} {
			b.Run(fmt.Sprintf("%s/%.0fMBps", k, bw/1e6), func(b *testing.B) {
				cfg := config.Default()
				cfg.Flash.ChannelBW = bw
				r := benchSimulate(b, k, cfg, "amazon")
				b.ReportMetric(r.Throughput, "targets/s")
			})
		}
	}
}

// BenchmarkFig18Cores regenerates Figure 18c.
func BenchmarkFig18Cores(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		for _, k := range []platform.Kind{platform.BGDGSP, platform.BG2} {
			b.Run(fmt.Sprintf("%s/cores-%d", k, n), func(b *testing.B) {
				cfg := config.Default()
				cfg.Firmware.Cores = n
				r := benchSimulate(b, k, cfg, "amazon")
				b.ReportMetric(r.Throughput, "targets/s")
			})
		}
	}
}

// BenchmarkFig18Channels regenerates Figure 18d.
func BenchmarkFig18Channels(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		for _, k := range []platform.Kind{platform.BG1, platform.BG2} {
			b.Run(fmt.Sprintf("%s/channels-%d", k, n), func(b *testing.B) {
				cfg := config.Default()
				cfg.Flash.Channels = n
				r := benchSimulate(b, k, cfg, "amazon")
				b.ReportMetric(r.Throughput, "targets/s")
			})
		}
	}
}

// BenchmarkFig18Dies regenerates Figure 18e.
func BenchmarkFig18Dies(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		for _, k := range []platform.Kind{platform.BG1, platform.BG2} {
			b.Run(fmt.Sprintf("%s/dies-%d", k, n), func(b *testing.B) {
				cfg := config.Default()
				cfg.Flash.DiesPerChannel = n
				r := benchSimulate(b, k, cfg, "amazon")
				b.ReportMetric(r.Throughput, "targets/s")
			})
		}
	}
}

// BenchmarkFig18PageSize regenerates Figure 18f. The DirectGraph must
// be rebuilt per page size, so instances are constructed in-bench.
func BenchmarkFig18PageSize(b *testing.B) {
	d, err := dataset.ByName("amazon")
	if err != nil {
		b.Fatal(err)
	}
	for _, ps := range []int{2048, 4096, 8192, 16384} {
		cfg := config.Default()
		cfg.Flash.PageSize = ps
		inst, err := dataset.Materialize(d, benchNodes, ps, cfg.Seed)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []platform.Kind{platform.BG1, platform.BG2} {
			b.Run(fmt.Sprintf("%s/page-%d", k, ps), func(b *testing.B) {
				var tput float64
				for i := 0; i < b.N; i++ {
					r, err := platform.Simulate(k, cfg, inst, benchBatches, 0)
					if err != nil {
						b.Fatal(err)
					}
					tput = r.Throughput
				}
				b.ReportMetric(tput, "targets/s")
			})
		}
	}
}

// BenchmarkFig19Energy regenerates Figure 19's efficiency ratios.
func BenchmarkFig19Energy(b *testing.B) {
	cfg := config.Default()
	cc := benchSimulate(b, platform.CC, cfg, "amazon")
	bg1 := benchSimulate(b, platform.BG1, cfg, "amazon")
	bg2 := benchSimulate(b, platform.BG2, cfg, "amazon")
	b.ReportMetric(bg2.Efficiency/cc.Efficiency, "BG2-vs-CC")
	b.ReportMetric(bg2.Efficiency/bg1.Efficiency, "BG2-vs-BG1")
	b.ReportMetric(bg2.AvgPowerW, "BG2-watts")
}

// BenchmarkTraditionalSSD regenerates Section VII-E's anchor: BG-DGSP ≈
// BG-2 at 20 µs read latency.
func BenchmarkTraditionalSSD(b *testing.B) {
	cfg := config.Traditional()
	dgsp := benchSimulate(b, platform.BGDGSP, cfg, "amazon")
	bg2 := benchSimulate(b, platform.BG2, cfg, "amazon")
	b.ReportMetric(bg2.Throughput/dgsp.Throughput, "BG2-vs-DGSP")
}

// BenchmarkTableIVInflation regenerates Table IV's inflation ratios.
func BenchmarkTableIVInflation(b *testing.B) {
	for _, d := range dataset.All() {
		b.Run(d.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				st, err := dataset.FullScaleInflation(d, 4096, 30_000, 7)
				if err != nil {
					b.Fatal(err)
				}
				ratio = st.InflationRatio()
			}
			b.ReportMetric(ratio*100, "inflation-%")
		})
	}
}

// --- micro-benchmarks of the core data structures ---

// BenchmarkDirectGraphBuild measures Algorithm-1 construction speed,
// including drawing every node's features into its primary section.
func BenchmarkDirectGraphBuild(b *testing.B) {
	g, err := graph.Generate(graph.GenSpec{Nodes: 5000, AvgDegree: 50, FeatureDim: 64, PowerLaw: 2.0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	l := directgraph.Layout{PageSize: 4096, FeatureDim: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := directgraph.BuildGraph(l, g, &directgraph.SeqAllocator{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplerExecute measures the functional die sampler.
func BenchmarkSamplerExecute(b *testing.B) {
	inst := benchInstance(b, "amazon")
	l := inst.Build.Layout
	cfg := sampler.Config{Hops: 3, Fanout: 3, FeatureDim: inst.Desc.FeatureDim}
	trng := xrand.New(1)
	addr := inst.Build.NodeAddr(7)
	page := inst.Build.Pages[l.Page(addr)]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampler.Execute(l, page, sampler.Command{Addr: addr}, cfg, trng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventKernel measures raw event throughput of the simulator.
func BenchmarkEventKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.New()
		var spin func()
		n := 0
		spin = func() {
			n++
			if n < 1000 {
				k.After(10, spin)
			}
		}
		k.After(1, spin)
		k.Run()
	}
}

// --- ablation and extension benchmarks (DESIGN.md §6) ---

// BenchmarkAblationPipelining quantifies Section VI-D's mini-batch
// prep/compute overlap.
func BenchmarkAblationPipelining(b *testing.B) {
	on := config.Default()
	off := config.Default()
	off.Ablation.NoPipeline = true
	ron := benchSimulate(b, platform.BG2, on, "amazon")
	var roff *platform.Result
	for i := 0; i < b.N; i++ {
		r, err := platform.Simulate(platform.BG2, off, benchInstance(b, "amazon"), benchBatches, 0)
		if err != nil {
			b.Fatal(err)
		}
		roff = r
	}
	b.ReportMetric(ron.Throughput/roff.Throughput, "pipeline-gain")
}

// BenchmarkAblationCoalescing quantifies Section V-A's secondary-command
// coalescing on a secondary-heavy (high-degree, wide-fanout) workload.
func BenchmarkAblationCoalescing(b *testing.B) {
	on := config.Default()
	on.GNN.Fanout = 6
	off := on
	off.Ablation.NoCoalesce = true
	var ron, roff *platform.Result
	for i := 0; i < b.N; i++ {
		var err error
		ron, err = platform.Simulate(platform.BG2, on, benchInstance(b, "reddit"), benchBatches, 0)
		if err != nil {
			b.Fatal(err)
		}
		roff, err = platform.Simulate(platform.BG2, off, benchInstance(b, "reddit"), benchBatches, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(roff.FlashReads)/float64(ron.FlashReads), "read-amplification")
	b.ReportMetric(ron.Throughput/roff.Throughput, "coalescing-gain")
}

// BenchmarkConstruction measures the DirectGraph flush path (§VI-B).
func BenchmarkConstruction(b *testing.B) {
	inst := benchInstance(b, "amazon")
	cfg := config.Default()
	var res *platform.ConstructionResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = platform.SimulateConstruction(cfg, inst)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Bandwidth/1e6, "flush-MB/s")
}

// BenchmarkRegularIOInterference measures Section VI-G's acceleration-
// mode deferral of regular storage requests.
func BenchmarkRegularIOInterference(b *testing.B) {
	cfg := config.Default()
	var mean, idle sim.Time
	for i := 0; i < b.N; i++ {
		s, err := platform.NewSystem(platform.BG2, cfg, benchInstance(b, "amazon"), 0)
		if err != nil {
			b.Fatal(err)
		}
		_, stats, err := s.RunWithRegularIO(benchBatches)
		if err != nil {
			b.Fatal(err)
		}
		mean = stats.MeanLatency
		idle, err = platform.RegularIOBaseline(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mean.Micros(), "accel-mode-µs")
	b.ReportMetric(idle.Micros(), "idle-µs")
}

// --- experiment-engine benchmarks ---

// benchRunAll drives the full evaluation suite at reduced scale with a
// fixed worker count, discarding the report text. A fresh Options value
// per iteration gets a fresh engine, so the result memo and the dataset
// instances start cold and each iteration measures real
// materialization and simulation work, identically for both variants.
func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &core.Options{Quick: true, ScaleNodes: 2500, Batches: 2, Workers: workers}
		if err := core.RunAll(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllSequential is the single-worker baseline for the
// parallel experiment engine.
func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllParallel fans the same suite across all CPU cores; the
// ratio to BenchmarkRunAllSequential is the engine's wall-clock win.
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }
