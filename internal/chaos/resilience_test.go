package chaos_test

import (
	"testing"

	"beacongnn/internal/chaos"
	"beacongnn/internal/config"
	"beacongnn/internal/loadgen"
	"beacongnn/internal/sim"
)

// The resilience primitives in this package (Stream, RetryBudget,
// Backoff, Breaker) run the availability model inside loadgen's
// virtual-time service center; these tests drive them through it.

// testPipeline is a 400-request open-loop run at 75% load on a 4-way
// service center, with a 20 ms fault window that fails half and stalls
// a fifth of its attempts and drops 5% of its arrivals.
func testPipeline(seed uint64) ([]loadgen.Request, loadgen.VirtualBackend) {
	sched := make([]loadgen.Request, 400)
	for i := range sched {
		sched[i] = loadgen.Request{ID: i + 1, At: sim.Time(i) * 100 * sim.Microsecond}
	}
	return sched, loadgen.VirtualBackend{
		Workers: 4,
		Service: []sim.Time{300 * sim.Microsecond},
		Resilience: &loadgen.Resilience{
			Window:      [2]sim.Time{10 * sim.Millisecond, 30 * sim.Millisecond},
			FailRate:    0.5,
			StallRate:   0.2,
			StallFactor: 6,
			DropRate:    0.05,
			MaxAttempts: 3,
			Backoff:     chaos.Backoff{Base: int64(100 * sim.Microsecond), Max: int64(2 * sim.Millisecond)},
			BudgetRatio: 0.2,
			HedgeAfter:  600 * sim.Microsecond,
			Breaker:     chaos.BreakerConfig{Threshold: 5, Cooldown: int64(2 * sim.Millisecond)},
			Seed:        seed,
		},
	}
}

func run(t *testing.T, sched []loadgen.Request, b loadgen.VirtualBackend) loadgen.StepResult {
	t.Helper()
	res, err := loadgen.RunVirtual(sched, b)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runSeed(t *testing.T, seed uint64) loadgen.StepResult {
	t.Helper()
	sched, b := testPipeline(seed)
	return run(t, sched, b)
}

func availability(r loadgen.StepResult) float64 {
	return float64(r.OK+r.Degraded) / float64(r.Requests)
}

// TestPipelineDeterministic is the harness's core promise: the report
// is a pure function of its config. Two runs in the same process must
// agree exactly — there is no wall clock, no shared RNG, and no
// scheduler dependence inside the virtual event loop.
func TestPipelineDeterministic(t *testing.T) {
	a := runSeed(t, 7)
	b := runSeed(t, 7)
	if a != b {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
	c := runSeed(t, 8)
	if a == c {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestPipelineOutcomesPartitionAndResilience(t *testing.T) {
	rep := runSeed(t, 7)
	if rep.OK+rep.Degraded+rep.Failed+rep.Dropped != rep.Requests {
		t.Fatalf("outcomes leak: %+v", rep)
	}
	if rep.OK == 0 || rep.Retries == 0 || rep.Hedges == 0 {
		t.Fatalf("fault window exercised no resilience machinery: %+v", rep)
	}
	if a := availability(rep); a <= 0 || a > 1 {
		t.Fatalf("availability %g outside (0, 1]", a)
	}
	if rep.P99Ns < rep.P50Ns || rep.P999Ns < rep.P99Ns {
		t.Fatalf("quantiles not monotone: %+v", rep)
	}

	// A clean config (no fault window) is the availability ceiling.
	sched, clean := testPipeline(7)
	rs := *clean.Resilience
	rs.Window = [2]sim.Time{}
	rs.FailRate, rs.StallRate, rs.DropRate = 0, 0, 0
	clean.Resilience = &rs
	crep := run(t, sched, clean)
	if availability(crep) != 1 || crep.OK != crep.Requests {
		t.Fatalf("clean run not fully available: %+v", crep)
	}
	if crep.Retries != 0 || crep.BreakerTrips != 0 {
		t.Fatalf("clean run burned resilience machinery: %+v", crep)
	}
	if crep.GoodputQPS <= rep.GoodputQPS {
		t.Fatalf("faults did not cost goodput: clean %g <= faulted %g", crep.GoodputQPS, rep.GoodputQPS)
	}
}

// TestPipelineBreakerDegrades drives a total in-window outage: the
// breaker must trip, and refused requests must settle degraded (a
// stale result exists from the pre-window successes), not failed.
func TestPipelineBreakerDegrades(t *testing.T) {
	sched, b := testPipeline(3)
	b.Resilience.FailRate = 1
	b.Resilience.StallRate, b.Resilience.DropRate = 0, 0
	rep := run(t, sched, b)
	if rep.BreakerTrips == 0 {
		t.Fatalf("total outage never tripped the breaker: %+v", rep)
	}
	if rep.Degraded == 0 {
		t.Fatalf("no degraded serves during the outage: %+v", rep)
	}
	if rep.MTTRNs <= 0 {
		t.Fatalf("breaker recovered (post-window) but MTTR = %v", rep.MTTRNs)
	}
	// The window covers ~half the run; everything outside it succeeds.
	if rep.OK == 0 {
		t.Fatalf("no successes outside the outage window: %+v", rep)
	}
}

// outcomes is the (OK, Degraded, Failed, Dropped, Retries, Hedges,
// HedgeWins, BreakerTrips, MTTR ns) tuple of one run.
type outcomes [9]int64

func tuple(r loadgen.StepResult) outcomes {
	return outcomes{int64(r.OK), int64(r.Degraded), int64(r.Failed), int64(r.Dropped),
		int64(r.Retries), int64(r.Hedges), int64(r.HedgeWins), int64(r.BreakerTrips), r.MTTRNs}
}

// TestPipelineOutcomesPinned pins every outcome count to the values
// the standalone availability pipeline produced before it was folded
// into loadgen's service center: same request keys, same decision
// draws, same event order.
func TestPipelineOutcomesPinned(t *testing.T) {
	want := map[uint64]outcomes{
		3: {326, 63, 0, 11, 33, 242, 44, 3, 2_000_000},
		7: {331, 63, 0, 6, 29, 247, 50, 3, 2_150_000},
		8: {318, 69, 0, 13, 31, 236, 48, 4, 2_354_686},
	}
	for seed, w := range want {
		if got := tuple(runSeed(t, seed)); got != w {
			t.Errorf("seed %d: outcomes %v, want %v", seed, got, w)
		}
	}
	sched, b := testPipeline(3)
	b.Resilience.FailRate = 1
	b.Resilience.StallRate, b.Resilience.DropRate = 0, 0
	if got, w := tuple(run(t, sched, b)), (outcomes{186, 214, 0, 0, 15, 4, 0, 9, 2_300_000}); got != w {
		t.Errorf("total outage: outcomes %v, want %v", got, w)
	}
}

func TestScenariosValidate(t *testing.T) {
	all := chaos.Scenarios(false)
	if len(all) < 5 {
		t.Fatalf("catalog shrank to %d scenarios", len(all))
	}
	quick := chaos.Scenarios(true)
	if len(quick) >= len(all) {
		t.Fatalf("quick catalog (%d) not a strict subset of full (%d)", len(quick), len(all))
	}
	seen := map[string]bool{}
	for _, sc := range all {
		if sc.Name == "" || seen[sc.Name] {
			t.Fatalf("bad or duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Device == nil {
			continue
		}
		cfg := config.Default()
		sc.Device(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("scenario %s produced an invalid config: %v", sc.Name, err)
		}
		if !cfg.Fault.Enabled {
			t.Errorf("scenario %s mutated the device without enabling the fault model", sc.Name)
		}
	}
}
