package core

import (
	"fmt"
	"io"

	"beacongnn/internal/exp"
	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
)

// RunExtensions reports the beyond-the-paper studies (DESIGN.md §6):
// design ablations, DirectGraph construction throughput (§VI-B), and
// regular-I/O interference in acceleration mode (§VI-G). Section VIII's
// scale-out study is -exp cluster (DESIGN.md §14). The studies are
// independent, so they all run concurrently on the experiment engine;
// results are printed in a fixed order once everything has finished.
func RunExtensions(o *Options, w io.Writer) error {
	o.fill()
	eng := o.engine()

	// Configs for the ablations and the skew study. Each is a value
	// copy; nothing below mutates o.Cfg.
	pipeOff := o.Cfg
	pipeOff.Ablation.NoPipeline = true
	coalOn := o.Cfg
	coalOn.GNN.Fanout = 6
	coalOff := coalOn
	coalOff.Ablation.NoCoalesce = true
	zipf := o.Cfg
	zipf.GNN.TargetSkew = 1.4

	var (
		on, off, con, coff, z *platform.Result
		cons                  *platform.ConstructionResult
		ioStats               *platform.RegularIOStats
		idle                  sim.Time
	)
	err := exp.Go(
		func() (err error) { on, err = o.simulateCfg(platform.BG2, o.Cfg, "amazon", simTimeline); return },
		func() (err error) { off, err = o.simulateCfg(platform.BG2, pipeOff, "amazon", simTimeline); return },
		func() (err error) { con, err = o.simulateCfg(platform.BG2, coalOn, "reddit", simTimeline); return },
		func() (err error) { coff, err = o.simulateCfg(platform.BG2, coalOff, "reddit", simTimeline); return },
		func() (err error) { z, err = o.simulateCfg(platform.BG2, zipf, "amazon", simTimeline); return },
		func() error {
			inst, err := o.instance("amazon")
			if err != nil {
				return err
			}
			return eng.ThrottleCtx(o.context(), func() (err error) {
				cons, err = platform.SimulateConstruction(o.Cfg, inst)
				return err
			})
		},
		func() error {
			inst, err := o.instance("amazon")
			if err != nil {
				return err
			}
			return eng.ThrottleCtx(o.context(), func() error {
				s, err := platform.NewSystem(platform.BG2, o.Cfg, inst, 0)
				if err != nil {
					return err
				}
				s.BindContext(o.context())
				_, ioStats, err = s.RunWithRegularIO(o.Batches)
				return err
			})
		},
		func() error {
			return eng.ThrottleCtx(o.context(), func() (err error) {
				idle, err = platform.RegularIOBaseline(o.Cfg)
				return err
			})
		},
	)
	if err != nil {
		return err
	}

	// Ablation: mini-batch pipelining (§VI-D).
	fmt.Fprintf(w, "ablation: prep/compute pipelining (§VI-D)  on %.0f t/s, off %.0f t/s → %.2f× gain\n",
		on.Throughput, off.Throughput, on.Throughput/off.Throughput)

	// Ablation: secondary-command coalescing (§V-A) on a high-degree graph.
	fmt.Fprintf(w, "ablation: secondary coalescing (§V-A)      reads %d → %d without (%.2f× amplification)\n",
		con.FlashReads, coff.FlashReads, float64(coff.FlashReads)/float64(con.FlashReads))

	// DirectGraph construction (§VI-B).
	fmt.Fprintf(w, "DirectGraph flush (§VI-B): %d pages in %v → %.0f MB/s\n",
		cons.Pages, cons.Elapsed, cons.Bandwidth/1e6)

	// Regular-I/O interference (§VI-G).
	fmt.Fprintf(w, "regular I/O (§VI-G): idle-device read %v; in acceleration mode %v mean (deferral %v)\n",
		idle, ioStats.MeanLatency, ioStats.MeanDeferral)

	// Skewed (hot-node) targets.
	fmt.Fprintf(w, "hot-node targets (Zipf 1.4): %.0f t/s vs %.0f uniform (%.0f%%), mean dies %.1f vs %.1f\n",
		z.Throughput, on.Throughput, z.Throughput/on.Throughput*100, z.MeanDies, on.MeanDies)
	return nil
}
