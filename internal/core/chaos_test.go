package core

import (
	"bytes"
	"strings"
	"testing"

	"beacongnn/internal/chaos"
	"beacongnn/internal/loadgen"
	"beacongnn/internal/platform"
)

// TestChaosDeterministicAcrossWorkers is the acceptance bar for the
// availability sweep: the same seed renders a byte-identical report at
// any host parallelism, because the modeled pipeline runs in virtual
// time on a fixed virtual width.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		var b bytes.Buffer
		if err := RunChaos(optsWithWorkers(workers), &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	if seq == "" {
		t.Fatal("empty chaos output")
	}
	if par := render(8); par != seq {
		t.Fatalf("workers=8 output differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	for _, want := range []string{
		"availability under fault",
		"loadgen.backend spans",
		"die-outage",
		"engine-flap",
		"stall-burst",
		"MTTR",
		"expect:",
	} {
		if !strings.Contains(seq, want) {
			t.Errorf("chaos report missing %q:\n%s", want, seq)
		}
	}
}

// TestChaosCheckInvariants runs the sweep under -check: the baseline
// availability ceiling and its untouched resilience machinery are
// asserted inside RunChaos itself (the outcome partition inside
// loadgen.RunVirtual).
func TestChaosCheckInvariants(t *testing.T) {
	o := optsWithWorkers(4)
	o.Check = true
	var b bytes.Buffer
	if err := RunChaos(o, &b); err != nil {
		t.Fatal(err)
	}
}

// TestChaosOutcomesPinned pins every scenario's outcome tuple (OK,
// Degraded, Failed, Dropped, Retries, Hedges, HedgeWins, BreakerTrips,
// MTTR ns), in quick and full mode, to the values the standalone
// availability pipeline produced before the sweep moved onto loadgen's
// service center.
func TestChaosOutcomesPinned(t *testing.T) {
	want := map[bool]map[string][9]int64{
		true: {
			"die-outage":  {200, 0, 0, 0, 0, 0, 0, 0, 0},
			"engine-flap": {188, 12, 0, 0, 23, 141, 22, 1, 0},
			"stall-burst": {200, 0, 0, 0, 0, 144, 1, 0, 0},
		},
		false: {
			"baseline":     {600, 0, 0, 0, 0, 0, 0, 0, 0},
			"die-outage":   {600, 0, 0, 0, 0, 0, 0, 0, 0},
			"chan-outage":  {600, 0, 0, 0, 0, 442, 0, 0, 0},
			"uncorr-storm": {600, 0, 0, 0, 0, 0, 0, 0, 0},
			"engine-flap":  {380, 220, 0, 0, 38, 223, 17, 7, 11_639_424},
			"stall-burst":  {600, 0, 0, 0, 0, 442, 0, 0, 0},
			"drop-storm":   {540, 0, 0, 60, 0, 0, 0, 0, 0},
		},
	}
	for _, quick := range []bool{true, false} {
		scs, rows, err := chaosRows(&Options{Quick: quick})
		if err != nil {
			t.Fatal(err)
		}
		if len(scs) != len(want[quick]) {
			t.Fatalf("quick=%v: %d scenarios, want %d", quick, len(scs), len(want[quick]))
		}
		for i, sc := range scs {
			r := rows[i].res
			got := [9]int64{int64(r.OK), int64(r.Degraded), int64(r.Failed), int64(r.Dropped),
				int64(r.Retries), int64(r.Hedges), int64(r.HedgeWins), int64(r.BreakerTrips), r.MTTRNs}
			if got != want[quick][sc.Name] {
				t.Errorf("quick=%v %s: outcomes %v, want %v", quick, sc.Name, got, want[quick][sc.Name])
			}
		}
	}
}

// TestChaosBaselineMatchesCapacityPath is the differential between the
// two uses of the service center: the baseline scenario's schedule run
// through the resilience stack (fault window, budget, hedge timers,
// breaker — none of which fire) must measure exactly what the plain
// capacity path measures.
func TestChaosBaselineMatchesCapacityPath(t *testing.T) {
	o := optsWithWorkers(1)
	base, err := o.simulate(platform.BG2, chaosDataset, simTimeline)
	if err != nil {
		t.Fatal(err)
	}
	healthy := base.Elapsed
	sc := chaos.Scenarios(false)[0]
	if sc.Name != "baseline" {
		t.Fatalf("first full scenario is %q, want baseline", sc.Name)
	}
	sched := chaosSchedule(600, healthy)
	b := chaosBackend(sc, len(sched), healthy, healthy, o.Cfg.Seed)
	resilient, err := loadgen.RunVirtual(sched, b)
	if err != nil {
		t.Fatal(err)
	}
	b.Resilience = nil
	plain, err := loadgen.RunVirtual(sched, b)
	if err != nil {
		t.Fatal(err)
	}
	if resilient != plain {
		t.Fatalf("baseline through the resilience stack diverged from the plain service center:\n resilient=%+v\n plain    =%+v",
			resilient, plain)
	}
	if plain.OK != len(sched) {
		t.Fatalf("plain run served %d of %d", plain.OK, len(sched))
	}
}
