package core

import (
	"fmt"
	"io"

	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/exp"
	"beacongnn/internal/flash"
	"beacongnn/internal/metrics"
	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
	"beacongnn/internal/viz"
)

// RunTable2 prints the platform configuration (the reconstructed
// Table II; see DESIGN.md §1 for the derivation).
func RunTable2(o *Options, w io.Writer) error {
	o.fill()
	c := o.Cfg
	fmt.Fprintf(w, "SSD backend     %d channels × %d dies (%d total), %d B pages, %d pages/block, %d blocks/die (%.0f GB)\n",
		c.Flash.Channels, c.Flash.DiesPerChannel, c.Flash.TotalDies(),
		c.Flash.PageSize, c.Flash.PagesPerBlock, c.Flash.BlocksPerDie,
		float64(c.Flash.TotalBytes())/1e9)
	fmt.Fprintf(w, "Flash timing    read %v, program %v, erase %v; channel %.0f MB/s\n",
		c.Flash.ReadLatency, c.Flash.ProgramLatency, c.Flash.EraseLatency, c.Flash.ChannelBW/1e6)
	fmt.Fprintf(w, "Controller      %d embedded cores; flash-cmd %v, parse %v, FTL lookup %v\n",
		c.Firmware.Cores, c.Firmware.FlashCmdCost, c.Firmware.ResultParseCost, c.Firmware.TranslateCost)
	fmt.Fprintf(w, "SSD DRAM        %.1f GB/s, %v latency\n", c.DRAM.Bandwidth/1e9, c.DRAM.Latency)
	fmt.Fprintf(w, "PCIe            %.2f GB/s (Gen4 ×4), %v latency\n", c.PCIe.Bandwidth/1e9, c.PCIe.Latency)
	fmt.Fprintf(w, "SSD accelerator %d×%d systolic + %d-lane vector @ %.1f GHz, %d KB SRAM\n",
		c.SSDAccel.Rows, c.SSDAccel.Cols, c.SSDAccel.VectorLanes, c.SSDAccel.ClockHz/1e9, c.SSDAccel.SRAMBytes/1024)
	fmt.Fprintf(w, "Discrete accel  %d×%d systolic @ %.2f GHz (server-scale TPU)\n",
		c.TPU.Rows, c.TPU.Cols, c.TPU.ClockHz/1e9)
	fmt.Fprintf(w, "GNN task        %d hops × fanout %d (%d-node subgraphs), hidden %d, batch %d\n",
		c.GNN.Hops, c.GNN.Fanout, c.GNN.SubgraphNodes(), c.GNN.HiddenDim, c.GNN.BatchSize)
	return nil
}

// RunTable3 prints the dataset descriptors.
func RunTable3(o *Options, w io.Writer) error {
	fmt.Fprintf(w, "%-10s %12s %10s %8s %10s %10s\n", "dataset", "nodes(full)", "avg deg", "dim", "raw GB", "power law")
	for _, d := range dataset.All() {
		fmt.Fprintf(w, "%-10s %12d %10.0f %8d %10.1f %10.1f\n",
			d.Name, d.FullNodes, d.AvgDegree, d.FeatureDim, d.RawGB, d.PowerLaw)
	}
	return nil
}

// RunFig7 reproduces Figure 7a: throughput and latency as active ULL
// dies on one channel grow from 1 to 8.
func RunFig7(o *Options, w io.Writer) error {
	o.fill()
	counts := make([]int, o.Cfg.Flash.DiesPerChannel)
	for i := range counts {
		counts[i] = i + 1
	}
	eng := o.engine()
	points, err := exp.Map(counts, func(n int) (flash.ContentionResult, error) {
		var res flash.ContentionResult
		err := eng.ThrottleCtx(o.context(), func() (err error) {
			res, err = flash.RunChannelContention(o.Cfg.Flash, n, 2*sim.Millisecond)
			return err
		})
		return res, err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %16s %14s %12s\n", "dies", "pages/s", "avg latency", "bus util")
	for i, res := range points {
		n := counts[i]
		fmt.Fprintf(w, "%6d %16.0f %14v %11.0f%%\n", n, res.Throughput, res.AvgLatency, res.ChannelBusFrac*100)
		if n == o.Cfg.Flash.DiesPerChannel {
			first := points[0]
			fmt.Fprintf(w, "1→%d dies: throughput +%.0f%%, latency ×%.1f (paper: +49%%, ×7.7)\n",
				n, (res.Throughput/first.Throughput-1)*100,
				float64(res.AvgLatency)/float64(first.AvgLatency))
		}
	}
	return nil
}

// RunFig14 reproduces Figure 14: throughput of all eight platforms on
// all five datasets, normalized to CC per dataset, plus the averages.
// The 40 simulations fan out across the engine; formatting happens
// afterwards from the ordered grid, so output is worker-count-invariant.
func RunFig14(o *Options, w io.Writer) error {
	o.fill()
	grid, err := o.simulateGrid(o.Cfg, datasetNames(), platform.All(), simTimeline)
	if err != nil {
		return err
	}
	avg := map[string]float64{}
	fmt.Fprintf(w, "%-11s", "dataset")
	for _, k := range platform.All() {
		fmt.Fprintf(w, "%10s", k)
	}
	fmt.Fprintln(w)
	for di, d := range dataset.All() {
		tput := map[string]float64{}
		for ki, k := range platform.All() {
			tput[k.String()] = grid[di][ki].Throughput
		}
		norm := normalizeTo(tput, platform.CC.String())
		fmt.Fprintf(w, "%-11s", d.Name)
		for _, k := range platform.All() {
			fmt.Fprintf(w, "%10.2f", norm[k.String()])
			avg[k.String()] += norm[k.String()] / float64(len(dataset.All()))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-11s", "average")
	for _, k := range platform.All() {
		fmt.Fprintf(w, "%10.2f", avg[k.String()])
	}
	fmt.Fprintln(w)
	var bars []viz.Bar
	for _, k := range platform.All() {
		bars = append(bars, viz.Bar{Label: k.String(), Value: avg[k.String()]})
	}
	fmt.Fprint(w, viz.BarChart("average speedup vs CC", bars, 48))
	fmt.Fprintln(w, "paper avgs: CC 1.00, SmartSage 2.11, GList 1.42, BG-1 2.35, BG-SP ≈12.9, BG-DGSP ≈15.4, BG-2 ≈21.7")
	return nil
}

// RunFig15 reproduces Figure 15a–e: active channel/die counts over time
// for the die-sampling platforms on every dataset, plus mean utilization.
func RunFig15(o *Options, w io.Writer) error {
	o.fill()
	kinds := []platform.Kind{platform.BGSP, platform.BGDGSP, platform.BG2}
	grid, err := o.simulateGrid(o.Cfg, datasetNames(), kinds, simTimeline)
	if err != nil {
		return err
	}
	var rows []string
	dieCells := [][]float64{}
	chCells := [][]float64{}
	for di, d := range dataset.All() {
		fmt.Fprintf(w, "-- %s\n", d.Name)
		dieRow := []float64{}
		chRow := []float64{}
		for ki, k := range kinds {
			r := grid[di][ki]
			fmt.Fprintf(w, "  %-8s mean dies %6.1f/%d  mean channels %5.2f/%d  hop overlap %.2f\n",
				r.Platform, r.MeanDies, o.Cfg.Flash.TotalDies(),
				r.MeanChannels, o.Cfg.Flash.Channels, r.HopOverlap)
			if d.Name == "amazon" && k == platform.BG2 {
				fmt.Fprint(w, sparkline("   dies", r.DieTimeline, o.Cfg.Flash.TotalDies()))
			}
			dieRow = append(dieRow, r.MeanDies)
			chRow = append(chRow, r.MeanChannels)
		}
		rows = append(rows, d.Name)
		dieCells = append(dieCells, dieRow)
		chCells = append(chCells, chRow)
	}
	cols := []string{}
	for _, k := range kinds {
		cols = append(cols, k.String())
	}
	fmt.Fprint(w, viz.Heat("mean active dies (of 128)", rows, cols, dieCells))
	fmt.Fprint(w, viz.Heat("mean active channels (of 16)", rows, cols, chCells))
	fmt.Fprintln(w, "paper: BG-SP shows per-hop valleys; BG-2 raises utilization ~76% over BG-SP;")
	fmt.Fprintln(w, "       reddit/PPI stay channel-bound (low die util), movielens/OGBN die-bound (low channel util)")
	return nil
}

// sparkline renders a utilization timeline as a coarse text strip.
func sparkline(label string, pts []sim.UtilPoint, max int) string {
	if len(pts) == 0 {
		return ""
	}
	const buckets = 60
	end := pts[len(pts)-1].At
	if end == 0 {
		return ""
	}
	levels := []rune(" .:-=+*#%@")
	out := make([]rune, buckets)
	for i := range out {
		out[i] = ' '
	}
	for _, p := range pts {
		b := int(int64(p.At) * int64(buckets-1) / int64(end))
		l := p.Active * (len(levels) - 1) / max
		if l >= len(levels) {
			l = len(levels) - 1
		}
		if levels[l] > out[b] {
			out[b] = levels[l]
		}
	}
	return fmt.Sprintf("%s [%s]\n", label, string(out))
}

// RunFig15f reproduces Figure 15f: the end-to-end latency breakdown on
// amazon for every platform. Accumulated busy time per phase is divided
// by the resource's parallel width (16 channels can each carry a page at
// once; one PCIe link cannot), which is what makes the serial PCIe link
// dominate CC's end-to-end latency exactly as the paper describes.
func RunFig15f(o *Options, w io.Writer) error {
	o.fill()
	phases := []metrics.Phase{
		metrics.PhaseHost, metrics.PhasePCIe, metrics.PhaseFirmware,
		metrics.PhaseFlash, metrics.PhaseChannel, metrics.PhaseDRAM, metrics.PhaseAccel,
	}
	width := map[metrics.Phase]float64{
		metrics.PhaseHost:     float64(o.Cfg.Host.Cores),
		metrics.PhasePCIe:     1,
		metrics.PhaseFirmware: float64(o.Cfg.Firmware.Cores),
		metrics.PhaseFlash:    float64(o.Cfg.Flash.TotalDies()),
		metrics.PhaseChannel:  float64(o.Cfg.Flash.Channels),
		metrics.PhaseDRAM:     1,
		metrics.PhaseAccel:    1,
	}
	results, err := o.simulateOn(o.Cfg, "amazon", platform.All(), simTimeline)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s", "platform")
	for _, p := range phases {
		fmt.Fprintf(w, "%10s", p)
	}
	fmt.Fprintln(w)
	for _, r := range results {
		eff := map[metrics.Phase]float64{}
		total := 0.0
		for _, s := range r.Phases {
			v := float64(s.Time) / width[s.Phase]
			eff[s.Phase] = v
			total += v
		}
		fmt.Fprintf(w, "%-10s", r.Platform)
		for _, p := range phases {
			fmt.Fprintf(w, "%9.0f%%", eff[p]/total*100)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper: CC dominated by PCIe transfer; BG-1/BG-DG by flash I/O; host delay minor everywhere")
	fmt.Fprintln(w, "\nper-phase event latency (p50/p95/p99):")
	for _, r := range results {
		fmt.Fprintf(w, "\n%s\n%s", r.Platform, metrics.PhaseQuantileTable(r.PhaseLatency))
	}
	return nil
}

// RunFig16 reproduces Figure 16: per-hop activity spans on amazon.
func RunFig16(o *Options, w io.Writer) error {
	o.fill()
	results, err := o.simulateOn(o.Cfg, "amazon",
		[]platform.Kind{platform.BG1, platform.BGDG, platform.BGSP, platform.BGDGSP, platform.BG2}, simTimeline)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(w, "%-8s overlap %.2f\n", r.Platform, r.HopOverlap)
		var spans []viz.Span
		for _, s := range r.HopSpans {
			spans = append(spans, viz.Span{
				Label: fmt.Sprintf("hop%d", s.Hop),
				Start: s.First.Micros(), End: s.Last.Micros(),
			})
		}
		fmt.Fprint(w, viz.Gantt("", spans, 64))
	}
	fmt.Fprintln(w, "paper: BG-1/BG-SP serialize hops with gaps; BG-DG/BG-DGSP/BG-2 overlap them, BG-2 the most")
	return nil
}

// RunFig17 reproduces Figure 17: mean per-command lifetime phases.
func RunFig17(o *Options, w io.Writer) error {
	o.fill()
	results, err := o.simulateOn(o.Cfg, "amazon", platform.All(), simTimeline)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %14s %12s %14s %12s %12s\n",
		"platform", "wait_before", "flash", "wait_after", "channel", "lifetime")
	for _, r := range results {
		bd := r.CmdBreakdown
		fmt.Fprintf(w, "%-10s %14v %12v %14v %12v %12v\n", r.Platform,
			bd[metrics.PhaseWaitBefore], bd[metrics.PhaseFlash],
			bd[metrics.PhaseWaitAfter], bd[metrics.PhaseChannel], r.CmdLifetime)
	}
	fmt.Fprintln(w, "paper: waiting dominates lifetimes; BG-SP cuts both waits sharply vs page-granular designs")
	return nil
}

// RunFig19 reproduces Figure 19: energy grouping and efficiency. One
// simulation pass feeds both the table and the bar chart — the old code
// re-simulated every platform a second time just to build the bars.
func RunFig19(o *Options, w io.Writer) error {
	o.fill()
	results, err := o.simulateOn(o.Cfg, "amazon", platform.All(), simTimeline)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %8s %10s %10s %8s %10s %12s %14s %10s\n",
		"platform", "flash", "transfer", "frontend", "accel", "external", "avg power", "targets/s/W", "vs CC")
	var ccEff float64
	for ki, k := range platform.All() {
		if k == platform.CC {
			ccEff = results[ki].Efficiency
		}
	}
	var bars []viz.Bar
	for ki, k := range platform.All() {
		r := results[ki]
		g := r.EnergyGroup
		fmt.Fprintf(w, "%-10s %7.0f%% %9.0f%% %9.0f%% %7.0f%% %9.0f%% %10.1fW %14.0f %10.2f\n",
			r.Platform, g["flash"]*100, g["transfer"]*100, g["frontend"]*100, g["accel"]*100, g["external"]*100,
			r.AvgPowerW, r.Efficiency, r.Efficiency/ccEff)
		bars = append(bars, viz.Bar{Label: k.String(), Value: r.Efficiency / ccEff})
	}
	fmt.Fprint(w, viz.BarChart("energy efficiency vs CC", bars, 48))
	fmt.Fprintln(w, "paper: CC spends 57% externally; BG-1 75% on page→DRAM transfer; BG-2 ≈9.86× CC and ≈4.25× BG-1 efficiency, ~13.4 W")
	return nil
}

// RunTraditional reproduces Section VII-E: the same comparison on a
// 20 µs-read conventional SSD.
func RunTraditional(o *Options, w io.Writer) error {
	o.fill()
	// A value-copied config keeps the experiment self-contained: nothing
	// mutates o.Cfg, so RunTraditional can run concurrently with every
	// other experiment under RunAll.
	cfg := o.Cfg
	cfg.Flash.ReadLatency = 20 * sim.Microsecond

	kinds := append([]platform.Kind{platform.CC}, platform.BGOnly()...)
	grid, err := o.simulateGrid(cfg, datasetNames(), kinds, simTimeline)
	if err != nil {
		return err
	}
	avg := map[string]float64{}
	for di := range dataset.All() {
		tput := map[string]float64{}
		for ki, k := range kinds {
			tput[k.String()] = grid[di][ki].Throughput
		}
		norm := normalizeTo(tput, platform.CC.String())
		for k, v := range norm {
			avg[k] += v / float64(len(dataset.All()))
		}
	}
	fmt.Fprintf(w, "average speedup vs CC on a 20 µs SSD:\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-8s %6.2f\n", k, avg[k.String()])
	}
	fmt.Fprintln(w, "paper: 2.20 / 2.50 / 3.19 / 4.19 / 4.19 — BG-DGSP ≈ BG-2 (routing unnecessary at high read latency)")
	return nil
}

// RunTable4 reproduces Table IV: DirectGraph inflation per dataset at
// full-scale degree statistics.
func RunTable4(o *Options, w io.Writer) error {
	o.fill()
	sample := 200_000
	if o.Quick {
		sample = 40_000
	}
	paper := map[string]float64{"reddit": 2.8, "amazon": 4.1, "movielens": 3.5, "OGBN": 32.3, "PPI": 3.5}
	eng := o.engine()
	stats, err := exp.Map(dataset.All(), func(d dataset.Desc) (directgraph.Stats, error) {
		var st directgraph.Stats
		err := eng.ThrottleCtx(o.context(), func() (err error) {
			st, err = dataset.FullScaleInflation(d, o.Cfg.Flash.PageSize, sample, o.Cfg.Seed)
			return err
		})
		return st, err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %10s %12s %12s\n", "dataset", "raw GB", "inflation", "paper")
	for i, d := range dataset.All() {
		fmt.Fprintf(w, "%-10s %10.1f %11.1f%% %11.1f%%\n", d.Name, d.RawGB, stats[i].InflationRatio()*100, paper[d.Name])
	}
	return nil
}
