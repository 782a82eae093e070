package core

import (
	"fmt"
	"hash/fnv"
	"io"

	"beacongnn/internal/exp"
	"beacongnn/internal/loadgen"
	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
	"beacongnn/internal/trace"
)

// The capacity study answers the north-star serving question — how much
// offered load fits on this box before the tail diverges — with an
// open-loop sweep: seeded arrival schedules (Poisson and bursty MMPP,
// Zipf-skewed across query classes) replayed in virtual time against
// two modeled platforms, the raw BG-2 device and a beaconserved-shaped
// server (memo cache fast path + bounded admission queue). Latency is
// measured from each request's intended start, so saturation shows up
// as the unbounded intended-start tail an open queue really has, not
// the flattened send-time tail a closed-loop driver would report.

// capWorkers is the virtual service-center width. Fixed — never
// Options.Workers — so the curves are byte-identical at any -parallel
// setting: host parallelism fans grid points out, it must not leak into
// the modeled system.
const capWorkers = 4

// capDataset is the workload every curve serves.
const capDataset = "amazon"

// capClasses are the query-class service multipliers (in quarters of
// the calibrated base service time): class 0 is the flagship query, the
// rest model progressively heavier neighborhoods. Zipf selection makes
// class 0 the hottest, which is what gives the cache fast path its
// leverage.
var capClassQuarters = []sim.Time{4, 5, 6, 8}

// capSeed derives a grid point's schedule seed from the run seed and
// the point's coordinates, so every step draws decorrelated arrivals
// but each is individually reproducible.
func capSeed(base uint64, platform, arrival string, step int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", platform, arrival, step)
	return base ^ h.Sum64()
}

// capPlatform is one modeled serving stack.
type capPlatform struct {
	name    string
	backend loadgen.VirtualBackend // Service filled at calibration
}

// capPlatforms returns the two stacks the sweep compares. The
// beaconserved model adds the memo LRU (hits serve at a PCIe-ish 200µs
// without a worker) and the admission queue bound that turns overload
// into shed 429s instead of unbounded queueing.
func capPlatforms(classes []sim.Time) []capPlatform {
	return []capPlatform{
		{name: "BG-2", backend: loadgen.VirtualBackend{
			Workers: capWorkers, Service: classes,
		}},
		{name: "beaconserved", backend: loadgen.VirtualBackend{
			Workers: capWorkers, Service: classes,
			CacheCap: 2, CacheHit: 200 * sim.Microsecond, Queue: 16,
		}},
	}
}

// capArrivals returns the swept arrival processes at the given rate.
// The MMPP dwell is short relative to even a quick step's span so every
// run sees many modulation cycles and the realized rate stays near the
// grid's nominal rate.
func capArrivals(rate float64) []loadgen.Spec {
	return []loadgen.Spec{
		{Kind: loadgen.ArrivalPoisson, Rate: rate},
		{Kind: loadgen.ArrivalMMPP, Rate: rate, Burst: 1.7, Dwell: 20 * sim.Millisecond},
	}
}

// capFractions are the offered-load grid, as fractions of the nominal
// capacity W/s̄ — straddling 1.0 so the knee lands inside the sweep.
func capFractions(quick bool) []float64 {
	if quick {
		return []float64{0.5, 0.8, 1.1}
	}
	return []float64{0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.25}
}

// CapacityCurve is one (platform, arrival) load sweep with its detected
// knee: KneeIndex/KneeQPS name the last step still inside capacity
// (-1/0 when even the lightest step violates the rule), Saturated
// whether the sweep actually crossed the knee.
type CapacityCurve struct {
	Platform  string               `json:"platform"`
	Arrival   string               `json:"arrival"`
	Steps     []loadgen.StepResult `json:"steps"`
	KneeIndex int                  `json:"knee_index"`
	KneeQPS   float64              `json:"knee_qps"`
	Saturated bool                 `json:"saturated"`
}

// CapacityReport is the machine-readable capacity study
// (`beaconbench -exp capacity -json`).
type CapacityReport struct {
	Dataset  string          `json:"dataset"`
	Workers  int             `json:"workers"`
	Classes  int             `json:"classes"`
	Requests int             `json:"requests_per_step"`
	Curves   []CapacityCurve `json:"capacity_curves"`
}

// capRow is one grid point's outcome plus its span breakdown, merged
// per curve for the trace table.
type capRow struct {
	step loadgen.StepResult
	bd   []trace.ResourceStats
}

// capCalibrate derives the per-class service times from the memoized
// flagship simulation: class 0 is the measured BG-2 batch time on the
// dataset, heavier classes scale it by fixed quarters.
func capCalibrate(o *Options) ([]sim.Time, error) {
	base, err := o.simulate(platform.BG2, capDataset, simTimeline)
	if err != nil {
		return nil, err
	}
	classes := make([]sim.Time, len(capClassQuarters))
	for i, q := range capClassQuarters {
		classes[i] = base.Elapsed * q / 4
	}
	return classes, nil
}

// BuildCapacityReport runs the full sweep grid concurrently and
// reassembles it into per-(platform, arrival) curves with knees.
func BuildCapacityReport(o *Options) (*CapacityReport, []string, error) {
	o.fill()
	classes, err := capCalibrate(o)
	if err != nil {
		return nil, nil, err
	}
	var mean sim.Time
	for _, c := range classes {
		mean += c
	}
	mean /= sim.Time(len(classes))
	nominal := float64(capWorkers) / mean.Seconds() // qps at 100% load

	plats := capPlatforms(classes)
	fractions := capFractions(o.Quick)
	requests := 2400
	if o.Quick {
		requests = 600
	}

	type point struct{ p, a, s int }
	var grid []point
	arrivalNames := []string{loadgen.ArrivalPoisson, loadgen.ArrivalMMPP}
	for pi := range plats {
		for ai := range arrivalNames {
			for si := range fractions {
				grid = append(grid, point{pi, ai, si})
			}
		}
	}
	rows, err := exp.Map(grid, func(pt point) (capRow, error) {
		spec := capArrivals(nominal * fractions[pt.s])[pt.a]
		sched, err := loadgen.Build(loadgen.ScheduleSpec{
			Seed:     capSeed(o.Cfg.Seed, plats[pt.p].name, spec.Kind, pt.s),
			Arrival:  spec,
			Requests: requests,
			Classes:  len(classes),
			Skew:     1.0,
		})
		if err != nil {
			return capRow{}, fmt.Errorf("capacity %s/%s step %d: %w", plats[pt.p].name, spec.Kind, pt.s, err)
		}
		rec := trace.NewRecorder()
		b := plats[pt.p].backend
		b.Tracer = rec
		step, err := loadgen.RunVirtual(sched, b)
		if err != nil {
			return capRow{}, fmt.Errorf("capacity %s/%s step %d: %w", plats[pt.p].name, spec.Kind, pt.s, err)
		}
		// Offered load is defined by the grid, not back-derived from
		// the sampled schedule span, so curves line up across
		// platforms; goodput is completions per second of the run's
		// true extent — the makespan, floored by the offered window so
		// a bursty schedule that happens to realize early can never
		// report goodput above what was offered.
		step.OfferedQPS = nominal * fractions[pt.s]
		window := float64(requests) / step.OfferedQPS // offered span, seconds
		if ms := sim.Time(step.MakespanNs).Seconds(); ms > window {
			window = ms
		}
		step.GoodputQPS = float64(step.OK) / window
		return capRow{step: step, bd: rec.Breakdown()}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	rep := &CapacityReport{
		Dataset: capDataset, Workers: capWorkers,
		Classes: len(classes), Requests: requests,
	}
	var traceCells []string
	i := 0
	for _, p := range plats {
		for _, arr := range arrivalNames {
			curve := CapacityCurve{Platform: p.name, Arrival: arr}
			var groups [][]trace.ResourceStats
			for range fractions {
				curve.Steps = append(curve.Steps, rows[i].step)
				groups = append(groups, rows[i].bd)
				i++
			}
			curve.KneeIndex, curve.Saturated = loadgen.Knee(curve.Steps, loadgen.DefaultKneeRule())
			if curve.KneeIndex >= 0 {
				curve.KneeQPS = curve.Steps[curve.KneeIndex].OfferedQPS
			}
			rep.Curves = append(rep.Curves, curve)
			cell := "-"
			for _, st := range trace.MergeResourceStats(groups...) {
				if st.Resource == "loadgen.backend" {
					cell = fmt.Sprintf("wait %v/%v service %v/%v",
						st.Wait.Quantile(0.5), st.Wait.Quantile(0.99),
						st.Service.Quantile(0.5), st.Service.Quantile(0.99))
				}
			}
			traceCells = append(traceCells, cell)
		}
	}
	return rep, traceCells, nil
}

// checkCapacity enforces the sweep's structural invariants.
func checkCapacity(rep *CapacityReport) error {
	for _, c := range rep.Curves {
		prev := 0.0
		for i, s := range c.Steps {
			if s.OK+s.Shed+s.Failed != s.Requests {
				return fmt.Errorf("capacity %s/%s step %d: outcomes do not partition requests", c.Platform, c.Arrival, i)
			}
			if s.OfferedQPS <= prev {
				return fmt.Errorf("capacity %s/%s step %d: offered load not increasing", c.Platform, c.Arrival, i)
			}
			prev = s.OfferedQPS
			if s.GoodputQPS > 1.10*s.OfferedQPS {
				return fmt.Errorf("capacity %s/%s step %d: goodput %.1f exceeds offered %.1f", c.Platform, c.Arrival, i, s.GoodputQPS, s.OfferedQPS)
			}
		}
		if c.Saturated && c.KneeIndex >= len(c.Steps)-1 {
			return fmt.Errorf("capacity %s/%s: saturated curve with knee at the last step", c.Platform, c.Arrival)
		}
	}
	return nil
}

// RunCapacity executes the capacity study: per-(platform, arrival)
// offered-load sweeps with coordinated-omission-safe tails, detected
// knees, and the merged backend span quantiles.
func RunCapacity(o *Options, w io.Writer) error {
	o.fill()
	rep, traceCells, err := BuildCapacityReport(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "-- open-loop capacity curves (%s; %d requests/step, %d virtual workers, %d Zipf classes)\n",
		rep.Dataset, rep.Requests, rep.Workers, rep.Classes)
	for _, c := range rep.Curves {
		fmt.Fprintf(w, "   %s / %s\n", c.Platform, c.Arrival)
		fmt.Fprintf(w, "   %10s %9s %6s %6s %10s %10s %10s %10s\n",
			"offered", "goodput", "ok", "shed", "p50", "p99", "p99.9", "max")
		for _, s := range c.Steps {
			fmt.Fprintf(w, "   %8.1f/s %7.1f/s %6d %6d %10v %10v %10v %10v\n",
				s.OfferedQPS, s.GoodputQPS, s.OK, s.Shed,
				sim.Time(s.P50Ns), sim.Time(s.P99Ns), sim.Time(s.P999Ns), sim.Time(s.MaxNs))
		}
		switch {
		case c.KneeIndex < 0:
			fmt.Fprintf(w, "   knee: below the sweep (lightest step already violates the SLO rule)\n")
		case c.Saturated:
			fmt.Fprintf(w, "   knee: %.1f qps (step %d of %d — saturation observed within the sweep)\n",
				c.KneeQPS, c.KneeIndex+1, len(c.Steps))
		default:
			fmt.Fprintf(w, "   knee: >= %.1f qps (sweep never saturated; lower bound)\n", c.KneeQPS)
		}
	}
	fmt.Fprintf(w, "-- loadgen.backend spans per curve (merged across steps; wait p50/p99, service p50/p99)\n")
	for i, c := range rep.Curves {
		fmt.Fprintf(w, "   %-14s %-8s %s\n", c.Platform, c.Arrival, traceCells[i])
	}
	fmt.Fprintln(w, "expect: latency measured from intended start (coordinated-omission-safe), so past the knee")
	fmt.Fprintln(w, "        the BG-2 tail diverges with queue depth while beaconserved sheds to a bounded tail;")
	fmt.Fprintln(w, "        the memo fast path buys beaconserved extra goodput on the Zipf-hot classes;")
	fmt.Fprintln(w, "        the same seed reproduces these curves bit-for-bit at any -parallel width")
	if o.Check {
		if err := checkCapacity(rep); err != nil {
			return err
		}
	}
	return nil
}
