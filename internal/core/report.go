package core

import (
	"encoding/json"
	"io"

	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/exp"
	"beacongnn/internal/flash"
	"beacongnn/internal/metrics"
	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
)

// Report is the machine-readable form of the evaluation: every numeric
// series behind the figures, for downstream plotting. Built by
// BuildReport and emitted by `beaconbench -json`.
type Report struct {
	ScaleNodes int `json:"scale_nodes"`
	Batches    int `json:"batches"`

	Fig7   []Fig7Point            `json:"fig7"`
	Fig14  []Fig14Row             `json:"fig14"`
	Fig14N []Fig14Row             `json:"fig14_normalized"`
	Fig18  []SweepSeries          `json:"fig18"`
	Fig19  []EnergyRow            `json:"fig19"`
	Trad   map[string]float64     `json:"traditional_speedup"`
	Table4 []InflationRow         `json:"table4"`
	Util   map[string]UtilSummary `json:"fig15_util"`

	// LatencyQuantiles is each platform's per-phase p50/p95/p99 of
	// individual event durations on amazon.
	LatencyQuantiles map[string][]metrics.PhaseQuantile `json:"latency_quantiles"`
}

// Fig7Point is one die-count sample of the contention microbenchmark.
type Fig7Point struct {
	Dies       int     `json:"dies"`
	PagesPerS  float64 `json:"pages_per_s"`
	AvgLatency float64 `json:"avg_latency_us"`
	BusUtil    float64 `json:"bus_util"`
}

// Fig14Row is one dataset's throughput across platforms.
type Fig14Row struct {
	Dataset string             `json:"dataset"`
	Values  map[string]float64 `json:"values"`
}

// SweepSeries is one Figure-18 axis.
type SweepSeries struct {
	Name   string               `json:"name"`
	Points []string             `json:"points"`
	Series map[string][]float64 `json:"series"` // platform → throughput
}

// EnergyRow is one platform's Figure-19 numbers.
type EnergyRow struct {
	Platform   string             `json:"platform"`
	Groups     map[string]float64 `json:"groups"`
	PowerW     float64            `json:"power_w"`
	Efficiency float64            `json:"targets_per_s_per_w"`
}

// InflationRow is one Table-IV entry.
type InflationRow struct {
	Dataset   string  `json:"dataset"`
	RawGB     float64 `json:"raw_gb"`
	Inflation float64 `json:"inflation"`
}

// UtilSummary is one platform's mean utilization on amazon.
type UtilSummary struct {
	MeanDies     float64 `json:"mean_dies"`
	MeanChannels float64 `json:"mean_channels"`
	HopOverlap   float64 `json:"hop_overlap"`
}

// BuildReport runs the numeric experiments and assembles the report.
func BuildReport(o *Options) (*Report, error) {
	o.fill()
	rep := &Report{
		ScaleNodes:       o.ScaleNodes,
		Batches:          o.Batches,
		Trad:             map[string]float64{},
		Util:             map[string]UtilSummary{},
		LatencyQuantiles: map[string][]metrics.PhaseQuantile{},
	}

	eng := o.engine()
	err := exp.Go(
		// Fig 7.
		func() error {
			counts := make([]int, o.Cfg.Flash.DiesPerChannel)
			for i := range counts {
				counts[i] = i + 1
			}
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
			for i, res := range points {
				rep.Fig7 = append(rep.Fig7, Fig7Point{
					Dies: counts[i], PagesPerS: res.Throughput,
					AvgLatency: res.AvgLatency.Micros(), BusUtil: res.ChannelBusFrac,
				})
			}
			return nil
		},
		// Fig 14 (+ utilization summaries on amazon).
		func() error {
			grid, err := o.simulateGrid(o.Cfg, datasetNames(), platform.All(), simTimeline)
			if err != nil {
				return err
			}
			for di, d := range dataset.All() {
				row := Fig14Row{Dataset: d.Name, Values: map[string]float64{}}
				for ki, k := range platform.All() {
					r := grid[di][ki]
					row.Values[k.String()] = r.Throughput
					if d.Name == "amazon" {
						rep.Util[k.String()] = UtilSummary{
							MeanDies: r.MeanDies, MeanChannels: r.MeanChannels, HopOverlap: r.HopOverlap,
						}
						rep.LatencyQuantiles[k.String()] = r.PhaseLatency
					}
				}
				rep.Fig14 = append(rep.Fig14, row)
				rep.Fig14N = append(rep.Fig14N, Fig14Row{
					Dataset: d.Name,
					Values:  normalizeTo(row.Values, platform.CC.String()),
				})
			}
			return nil
		},
		// Fig 18 sweeps.
		func() error {
			sweeps := Fig18Sweeps(o.Quick)
			all, err := exp.Map(sweeps, func(s Sweep) (map[string][]float64, error) {
				return RunSweep(o, s)
			})
			if err != nil {
				return err
			}
			for si, s := range sweeps {
				ss := SweepSeries{Name: s.Name, Series: all[si]}
				for _, pt := range s.Points {
					ss.Points = append(ss.Points, pt.Label)
				}
				rep.Fig18 = append(rep.Fig18, ss)
			}
			return nil
		},
		// Fig 19.
		func() error {
			results, err := o.simulateOn(o.Cfg, "amazon", platform.All(), simTimeline)
			if err != nil {
				return err
			}
			for ki, k := range platform.All() {
				r := results[ki]
				rep.Fig19 = append(rep.Fig19, EnergyRow{
					Platform: k.String(), Groups: r.EnergyGroup,
					PowerW: r.AvgPowerW, Efficiency: r.Efficiency,
				})
			}
			return nil
		},
		// Traditional SSD.
		func() error {
			cfg := o.Cfg
			cfg.Flash.ReadLatency = 20 * sim.Microsecond
			kinds := append([]platform.Kind{platform.CC}, platform.BGOnly()...)
			grid, err := o.simulateGrid(cfg, datasetNames(), kinds, simTimeline)
			if err != nil {
				return err
			}
			for di := range dataset.All() {
				tput := map[string]float64{}
				for ki, k := range kinds {
					tput[k.String()] = grid[di][ki].Throughput
				}
				for k, v := range normalizeTo(tput, platform.CC.String()) {
					rep.Trad[k] += v / float64(len(dataset.All()))
				}
			}
			return nil
		},
		// Table IV.
		func() error {
			sample := 200_000
			if o.Quick {
				sample = 40_000
			}
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
			for i, d := range dataset.All() {
				rep.Table4 = append(rep.Table4, InflationRow{
					Dataset: d.Name, RawGB: d.RawGB, Inflation: stats[i].InflationRatio(),
				})
			}
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
