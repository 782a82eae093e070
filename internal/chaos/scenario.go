package chaos

import (
	"beacongnn/internal/config"
	"beacongnn/internal/sim"
)

// Scenario is one named fault shape for the availability sweep: an
// optional device-boundary mutation (applied to the simulated platform
// config, driving the PR-3 reliability model) plus the
// engine/HTTP-boundary rates fed to loadgen.Resilience.
type Scenario struct {
	Name string
	Desc string

	// Device mutates the faulted platform config; nil leaves the
	// device healthy (the scenario stresses only the serving layers).
	Device func(c *config.Config)

	FailRate    float64 // in-window attempt failure probability
	StallRate   float64 // in-window attempt stall probability
	StallFactor float64 // stalled service multiplier
	DropRate    float64 // in-window front-door drop probability
}

// deviceFaults switches the reliability model on with the repo's
// default tuning before applying an outage, so a scenario config
// validates regardless of the base config's fault section.
func deviceFaults(mutate func(f *config.Fault)) func(c *config.Config) {
	return func(c *config.Config) {
		f := config.DefaultFault()
		f.Enabled = true
		mutate(&f)
		c.Fault = f
	}
}

// Scenarios returns the availability sweep's fault catalog, ordered
// mild to severe. quick trims to the three that exercise one fault
// class per boundary, for CI smoke runs.
func Scenarios(quick bool) []Scenario {
	all := []Scenario{
		{
			Name: "baseline",
			Desc: "no injected faults; availability ceiling",
		},
		{
			Name:   "die-outage",
			Desc:   "one die dead from the start; device degrades, service inflates",
			Device: deviceFaults(func(f *config.Fault) { f.DeadDies = []int{0} }),
		},
		{
			Name:   "chan-outage",
			Desc:   "one channel dead; transfers reroute onto neighbors",
			Device: deviceFaults(func(f *config.Fault) { f.DeadChannels = []int{0} }),
		},
		{
			Name: "uncorr-storm",
			Desc: "mid-run RBER excursion drives the recovery ladder hard",
			Device: deviceFaults(func(f *config.Fault) {
				f.StormStart = 50 * sim.Microsecond
				f.StormEnd = 500 * sim.Microsecond
				f.StormRBER = 1.4e-5
			}),
		},
		{
			Name:     "engine-flap",
			Desc:     "half of in-window runs fail transiently; retries + breaker",
			FailRate: 0.5,
		},
		{
			Name:        "stall-burst",
			Desc:        "slow-worker tail; hedges reclaim the p99",
			StallRate:   0.25,
			StallFactor: 6,
		},
		{
			Name:     "drop-storm",
			Desc:     "front-door drops; availability floor under load shedding",
			DropRate: 0.2,
		},
	}
	if !quick {
		return all
	}
	return []Scenario{all[1], all[4], all[5]}
}
