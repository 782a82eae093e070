package core

import (
	"fmt"
	"hash/fnv"
	"io"

	"beacongnn/internal/chaos"
	"beacongnn/internal/exp"
	"beacongnn/internal/loadgen"
	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
	"beacongnn/internal/trace"
)

// The chaos availability sweep closes the loop between the PR-3 device
// fault model and the serving stack above it: each scenario derives
// real per-request service times from memoized BG-2 simulations
// (healthy and faulted), then drives an open-loop request stream
// through loadgen's virtual-time service center carrying the full
// resilience stack — retry budget, exponential backoff with
// deterministic jitter, hedged duplicates, and a circuit breaker with
// degraded fallback — and reports availability, goodput, error-budget
// burn, exact latency tails, and MTTR per fault shape.

// chaosWorkers is the virtual service-center width. Fixed — never
// Options.Workers — so the report is byte-identical at any -parallel
// setting: host parallelism fans scenarios out, it must not leak into
// the modeled system.
const chaosWorkers = 4

// chaosDataset is the workload every scenario serves.
const chaosDataset = "amazon"

// chaosSLO is the availability objective the error budget burns
// against.
const chaosSLO = 0.999

// chaosRow is one scenario's outcome plus its loadgen.backend span
// quantiles.
type chaosRow struct {
	res      loadgen.StepResult
	waitCell string
	svcCell  string
}

// chaosSeed derives a scenario's decision-stream seed from the run
// seed and the scenario name, so scenarios are decorrelated but each
// is individually reproducible.
func chaosSeed(base uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ h.Sum64()
}

// chaosInterval offers load at 80% of healthy capacity: W servers clear
// one request per healthy service time, so arrivals come every
// healthy/(W·0.8).
func chaosInterval(healthy sim.Time) sim.Time { return healthy * 10 / (chaosWorkers * 8) }

// chaosSchedule is the sweep's fixed-interval open loop: request i
// (ID i+1, the key its decision draws hash) arrives at i·interval.
func chaosSchedule(requests int, healthy sim.Time) []loadgen.Request {
	sched := make([]loadgen.Request, requests)
	for i := range sched {
		sched[i] = loadgen.Request{ID: i + 1, At: sim.Time(i) * chaosInterval(healthy)}
	}
	return sched
}

// chaosBackend is the service center a scenario runs on: healthy
// service outside the fault window, the faulted device's service time
// and the scenario's rates inside it (the middle half of the arrival
// span), and the full resilience stack throughout.
func chaosBackend(sc chaos.Scenario, requests int, healthy, faulted sim.Time, seed uint64) loadgen.VirtualBackend {
	span := sim.Time(requests-1) * chaosInterval(healthy)
	return loadgen.VirtualBackend{
		Workers: chaosWorkers,
		Service: []sim.Time{healthy},
		Resilience: &loadgen.Resilience{
			Window:       [2]sim.Time{span / 4, 3 * span / 4},
			FaultService: faulted,
			FailRate:     sc.FailRate,
			StallRate:    sc.StallRate,
			StallFactor:  sc.StallFactor,
			DropRate:     sc.DropRate,
			MaxAttempts:  3,
			Backoff:      chaos.Backoff{Base: int64(healthy / 4), Max: int64(4 * healthy)},
			BudgetRatio:  0.2,
			HedgeAfter:   2 * healthy,
			Breaker:      chaos.BreakerConfig{Threshold: 5, Cooldown: int64(8 * healthy)},
			Seed:         chaosSeed(seed, sc.Name),
		},
	}
}

// runChaosScenario simulates the scenario's device (healthy and, when
// the scenario carries a device mutation, faulted) to calibrate
// service times, then replays the schedule through the resilient
// service center.
func (o *Options) runChaosScenario(sc chaos.Scenario, sched []loadgen.Request, healthy sim.Time) (chaosRow, error) {
	faulted := healthy
	if sc.Device != nil {
		cfg := o.Cfg
		sc.Device(&cfg)
		r, err := o.simulateCfg(platform.BG2, cfg, chaosDataset, simTimeline)
		if err != nil {
			return chaosRow{}, fmt.Errorf("chaos %s: %w", sc.Name, err)
		}
		faulted = r.Elapsed
	}
	rec := trace.NewRecorder()
	b := chaosBackend(sc, len(sched), healthy, faulted, o.Cfg.Seed)
	b.Tracer = rec
	res, err := loadgen.RunVirtual(sched, b)
	if err != nil {
		return chaosRow{}, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	row := chaosRow{res: res, waitCell: "-", svcCell: "-"}
	for _, st := range rec.Breakdown() {
		if st.Resource == "loadgen.backend" {
			row.waitCell = fmt.Sprintf("%v/%v", st.Wait.Quantile(0.5), st.Wait.Quantile(0.99))
			row.svcCell = fmt.Sprintf("%v/%v", st.Service.Quantile(0.5), st.Service.Quantile(0.99))
		}
	}
	return row, nil
}

// chaosRows runs every scenario of the catalog; RunChaos renders them.
func chaosRows(o *Options) ([]chaos.Scenario, []chaosRow, error) {
	o.fill()
	scs := chaos.Scenarios(o.Quick)
	requests := 600
	if o.Quick {
		requests = 200
	}
	base, err := o.simulate(platform.BG2, chaosDataset, simTimeline)
	if err != nil {
		return nil, nil, err
	}
	sched := chaosSchedule(requests, base.Elapsed)
	rows, err := exp.Map(scs, func(sc chaos.Scenario) (chaosRow, error) {
		return o.runChaosScenario(sc, sched, base.Elapsed)
	})
	return scs, rows, err
}

// RunChaos executes the availability sweep across the fault catalog.
// Availability counts full and degraded serves; the error budget burns
// at the hard-failure rate (failed + dropped) over the SLO's allowance.
func RunChaos(o *Options, w io.Writer) error {
	scs, rows, err := chaosRows(o)
	if err != nil {
		return err
	}
	avail := func(r loadgen.StepResult) float64 { return float64(r.OK+r.Degraded) / float64(r.Requests) }

	fmt.Fprintf(w, "-- availability under fault (BG-2 on %s; %d requests, %d virtual workers, SLO 99.9%%)\n",
		chaosDataset, rows[0].res.Requests, chaosWorkers)
	fmt.Fprintf(w, "   %-12s %7s %9s %6s %10s %10s %10s %5s %5s %5s %5s %5s %5s\n",
		"scenario", "avail", "goodput", "burn", "p99", "p99.9", "MTTR", "ok", "deg", "drop", "rtry", "hdg", "trip")
	for i, sc := range scs {
		r := rows[i].res
		mttr := "-"
		if r.MTTRNs > 0 {
			mttr = fmt.Sprintf("%v", sim.Time(r.MTTRNs))
		}
		burn := float64(r.Failed+r.Dropped) / float64(r.Requests) / (1 - chaosSLO)
		fmt.Fprintf(w, "   %-12s %6.2f%% %8.1f/s %6.2f %10v %10v %10s %5d %5d %5d %5d %5d %5d\n",
			sc.Name, 100*avail(r), r.GoodputQPS, burn, sim.Time(r.P99Ns), sim.Time(r.P999Ns), mttr,
			r.OK, r.Degraded, r.Dropped, r.Retries, r.Hedges, r.BreakerTrips)
	}
	fmt.Fprintf(w, "-- loadgen.backend spans (wait p50/p99, service p50/p99)\n")
	for i, sc := range scs {
		fmt.Fprintf(w, "   %-12s wait %-22s service %s\n", sc.Name, rows[i].waitCell, rows[i].svcCell)
	}
	fmt.Fprintln(w, "expect: baseline holds full availability; outages and storms inflate tails but stay served;")
	fmt.Fprintln(w, "        engine flaps trip the breaker and degrade instead of failing; hedges cap the stall tail;")
	fmt.Fprintln(w, "        the same seed reproduces this report bit-for-bit at any -parallel width")
	if o.Check {
		for i, sc := range scs {
			if sc.Name != "baseline" {
				continue
			}
			r := rows[i].res
			if a := avail(r); a != 1 {
				return fmt.Errorf("chaos baseline availability %.4f, want 1", a)
			}
			if r.Retries != 0 || r.Hedges != 0 || r.BreakerTrips != 0 {
				return fmt.Errorf("chaos baseline burned resilience machinery: %d retries, %d hedges, %d breaker trips, want 0",
					r.Retries, r.Hedges, r.BreakerTrips)
			}
		}
	}
	return nil
}
