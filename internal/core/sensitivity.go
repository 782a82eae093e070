package core

import (
	"fmt"
	"io"

	"beacongnn/internal/config"
	"beacongnn/internal/exp"
	"beacongnn/internal/platform"
	"beacongnn/internal/viz"
)

// Sweep is one Figure-18 sensitivity axis: it mutates the configuration
// per point and reports each BG-X platform's throughput, normalized to
// the sweep's lowest value per platform (the paper's presentation).
type Sweep struct {
	Name   string
	Points []SweepPoint
}

// labels returns the sweep's x-axis labels in point order.
func (s Sweep) labels() []string {
	var out []string
	for _, pt := range s.Points {
		out = append(out, pt.Label)
	}
	return out
}

// SweepPoint is one x-axis value of a sweep.
type SweepPoint struct {
	Label string
	Apply func(c *config.Config)
}

// Fig18Sweeps returns the six sensitivity sweeps of Figure 18.
func Fig18Sweeps(quick bool) []Sweep {
	batch := []int{32, 64, 128, 256}
	chanBW := []float64{333e6, 800e6, 1600e6, 2400e6}
	cores := []int{1, 2, 4, 8}
	channels := []int{4, 8, 16, 32}
	dies := []int{2, 4, 8, 16}
	pages := []int{2048, 4096, 8192, 16384}
	if quick {
		batch = []int{32, 128}
		chanBW = []float64{333e6, 1600e6}
		cores = []int{1, 8}
		channels = []int{4, 16}
		dies = []int{2, 8}
		pages = []int{2048, 8192}
	}
	var sweeps []Sweep

	s := Sweep{Name: "batch size"}
	for _, b := range batch {
		b := b
		s.Points = append(s.Points, SweepPoint{fmt.Sprintf("%d", b), func(c *config.Config) { c.GNN.BatchSize = b }})
	}
	sweeps = append(sweeps, s)

	s = Sweep{Name: "channel bandwidth (MB/s)"}
	for _, bw := range chanBW {
		bw := bw
		s.Points = append(s.Points, SweepPoint{fmt.Sprintf("%.0f", bw/1e6), func(c *config.Config) { c.Flash.ChannelBW = bw }})
	}
	sweeps = append(sweeps, s)

	s = Sweep{Name: "controller cores"}
	for _, n := range cores {
		n := n
		s.Points = append(s.Points, SweepPoint{fmt.Sprintf("%d", n), func(c *config.Config) { c.Firmware.Cores = n }})
	}
	sweeps = append(sweeps, s)

	s = Sweep{Name: "flash channels"}
	for _, n := range channels {
		n := n
		s.Points = append(s.Points, SweepPoint{fmt.Sprintf("%d", n), func(c *config.Config) { c.Flash.Channels = n }})
	}
	sweeps = append(sweeps, s)

	s = Sweep{Name: "dies per channel"}
	for _, n := range dies {
		n := n
		s.Points = append(s.Points, SweepPoint{fmt.Sprintf("%d", n), func(c *config.Config) { c.Flash.DiesPerChannel = n }})
	}
	sweeps = append(sweeps, s)

	s = Sweep{Name: "flash page size (B)"}
	for _, p := range pages {
		p := p
		s.Points = append(s.Points, SweepPoint{fmt.Sprintf("%d", p), func(c *config.Config) { c.Flash.PageSize = p }})
	}
	sweeps = append(sweeps, s)

	return sweeps
}

// RunSweep executes one sweep on the amazon workload (the paper's
// representative dataset) and returns throughput per platform per point.
// Every (point, platform) cell runs in parallel; page-size points get
// their own DirectGraph build through the shared instance cache, so a
// rebuild happens at most once per page size.
func RunSweep(o *Options, s Sweep) (map[string][]float64, error) {
	o.fill()
	kinds := platform.BGOnly()
	type cell struct {
		pt int
		k  int
	}
	var cells []cell
	for pi := range s.Points {
		for ki := range kinds {
			cells = append(cells, cell{pi, ki})
		}
	}
	flat, err := exp.Map(cells, func(c cell) (*platform.Result, error) {
		cfg := o.Cfg
		s.Points[c.pt].Apply(&cfg)
		r, err := o.simulateCfg(kinds[c.k], cfg, "amazon", simTimeline)
		if err != nil {
			return nil, fmt.Errorf("%s %s=%s: %w", kinds[c.k], s.Name, s.Points[c.pt].Label, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for i, c := range cells {
		k := kinds[c.k].String()
		out[k] = append(out[k], flat[i].Throughput)
	}
	return out, nil
}

// fig18Series executes all six sweeps — concurrently, every (sweep,
// point, platform) cell an independent simulation. series[i] is
// sweeps[i]'s throughput per platform per point.
func fig18Series(o *Options) (sweeps []Sweep, series []map[string][]float64, err error) {
	o.fill()
	sweeps = Fig18Sweeps(o.Quick)
	series, err = exp.Map(sweeps, func(s Sweep) (map[string][]float64, error) {
		return RunSweep(o, s)
	})
	return sweeps, series, err
}

// RunFig18 prints each Figure-18 sweep with each platform's series
// normalized to its own minimum (the paper's normalization).
func RunFig18(o *Options, w io.Writer) error {
	sweeps, all, err := fig18Series(o)
	if err != nil {
		return err
	}
	for si, s := range sweeps {
		res := all[si]
		labels := s.labels()
		fmt.Fprintf(w, "-- %s\n", s.Name)
		fmt.Fprintf(w, "   %-9s", "")
		for _, l := range labels {
			fmt.Fprintf(w, "%10s", l)
		}
		fmt.Fprintln(w)
		var plotted []viz.Series
		for _, k := range platform.BGOnly() {
			series := res[k.String()]
			min := series[0]
			for _, v := range series {
				if v < min {
					min = v
				}
			}
			fmt.Fprintf(w, "   %-9s", k)
			norm := make([]float64, len(series))
			for i, v := range series {
				norm[i] = v / min
				fmt.Fprintf(w, "%10.2f", norm[i])
			}
			fmt.Fprintln(w)
			plotted = append(plotted, viz.Series{Name: k.String(), Values: norm})
		}
		fmt.Fprint(w, viz.LinePlot("", labels, plotted, 8))
	}
	fmt.Fprintln(w, "paper: BG-2 scales best with batch; BG-1/BG-DG track channel BW; BG-SP/BG-DGSP track cores;")
	fmt.Fprintln(w, "       BG-2 saturates ≥800 MB/s and is core-count-insensitive; page size barely moves BG-2")
	return nil
}
