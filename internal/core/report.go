package core

import (
	"encoding/json"
	"io"

	"beacongnn/internal/dataset"
	"beacongnn/internal/exp"
	"beacongnn/internal/metrics"
	"beacongnn/internal/platform"
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
// Every series comes from the same builder its text runner formats, so
// the two renderings always read one computation.
func BuildReport(o *Options) (*Report, error) {
	o.fill()
	rep := &Report{
		ScaleNodes:       o.ScaleNodes,
		Batches:          o.Batches,
		Util:             map[string]UtilSummary{},
		LatencyQuantiles: map[string][]metrics.PhaseQuantile{},
	}
	err := exp.Go(
		func() error {
			points, err := fig7Points(o)
			if err != nil {
				return err
			}
			for i, res := range points {
				rep.Fig7 = append(rep.Fig7, Fig7Point{
					Dies: i + 1, PagesPerS: res.Throughput,
					AvgLatency: res.AvgLatency.Micros(), BusUtil: res.ChannelBusFrac,
				})
			}
			return nil
		},
		func() error {
			grid, err := fig14Grid(o)
			if err != nil {
				return err
			}
			for di, d := range dataset.All() {
				tput := throughputs(platform.All(), grid[di])
				rep.Fig14 = append(rep.Fig14, Fig14Row{Dataset: d.Name, Values: tput})
				rep.Fig14N = append(rep.Fig14N, Fig14Row{Dataset: d.Name, Values: normalizeTo(tput, platform.CC.String())})
				if d.Name != "amazon" {
					continue
				}
				for ki, k := range platform.All() {
					r := grid[di][ki]
					rep.Util[k.String()] = UtilSummary{
						MeanDies: r.MeanDies, MeanChannels: r.MeanChannels, HopOverlap: r.HopOverlap,
					}
					rep.LatencyQuantiles[k.String()] = r.PhaseLatency
				}
			}
			return nil
		},
		func() error {
			sweeps, series, err := fig18Series(o)
			if err != nil {
				return err
			}
			for si, s := range sweeps {
				rep.Fig18 = append(rep.Fig18, SweepSeries{Name: s.Name, Points: s.labels(), Series: series[si]})
			}
			return nil
		},
		func() error {
			results, err := amazonResults(o)
			if err != nil {
				return err
			}
			for _, r := range results {
				rep.Fig19 = append(rep.Fig19, EnergyRow{
					Platform: r.Platform, Groups: r.EnergyGroup,
					PowerW: r.AvgPowerW, Efficiency: r.Efficiency,
				})
			}
			return nil
		},
		func() (err error) {
			_, rep.Trad, err = tradSpeedups(o)
			return err
		},
		func() error {
			stats, err := table4Stats(o)
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

// WriteJSON emits a report as indented JSON — the one encoding every
// `beaconbench -json` report shares.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
