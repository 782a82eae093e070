// Package fault is the seeded NAND reliability model: it classifies
// every page sense as clean, read-retry, soft-decode, or uncorrectable
// from a per-die pseudo-random stream and a wear-dependent raw bit
// error rate, and tracks injected die/channel outages plus the recovery
// statistics (retirements, remaps, relocations, degraded reads) the
// platform layer reports.
//
// The error-count model: a page of B bits read at raw bit error rate r
// sees a Poisson(λ = r·B) number of raw bit errors. The controller's
// ECC pipeline corrects up to HardECCBits on the fly; up to RetryECCBits
// after extra Vref-shift senses; up to SoftECCBits after a firmware
// soft-decode pass; anything beyond is uncorrectable. One uniform draw
// per sense against the Poisson tail probabilities picks the class, so
// a simulation's outcome sequence is a pure function of the seed, the
// fault configuration, and the (deterministic) per-die read order.
package fault

import (
	"math"

	"beacongnn/internal/config"
	"beacongnn/internal/sim"
	"beacongnn/internal/xrand"
)

// Class is the ECC outcome of one page sense.
type Class int

// Sense outcomes, from cheapest to most severe.
const (
	Clean Class = iota
	Retry
	SoftDecode
	Uncorrectable
)

func (c Class) String() string {
	switch c {
	case Clean:
		return "clean"
	case Retry:
		return "retry"
	case SoftDecode:
		return "soft_decode"
	case Uncorrectable:
		return "uncorrectable"
	}
	return "unknown"
}

// Outcome describes one classified sense: the class, how many extra
// Vref-shift senses the die performed, the resulting extra die-occupancy
// time, and the firmware-charged soft-decode time.
type Outcome struct {
	Class        Class
	RetrySenses  int
	ExtraDieTime sim.Time
	FirmwareTime sim.Time
	DieDead      bool // sense targeted an injected-dead die
}

// Stats counts reliability events over a run. The classification
// counters are maintained by Classify; the recovery counters are bumped
// by the platform layer through the Note* methods as it retires blocks,
// remaps pages, and relocates the DirectGraph.
type Stats struct {
	Reads         uint64 // classified senses
	CleanReads    uint64
	RetryReads    uint64
	SoftReads     uint64
	Uncorrectable uint64
	RetrySenses   uint64 // total extra Vref-shift senses

	DegradedReads   uint64 // reads completed without full correction
	RetiredBlocks   uint64
	RemappedPages   uint64
	Relocations     uint64
	DeadDieReads    uint64
	ChannelReroutes uint64
}

// classProbs are the cumulative class boundaries for one P/E count:
// u < clean → Clean, u < retry → Retry, u < soft → SoftDecode,
// otherwise Uncorrectable.
type classProbs struct {
	clean, retry, soft float64
}

// Injector is the per-device fault model instance. It is not safe for
// concurrent use; each simulated system owns one.
type Injector struct {
	cfg      config.Fault
	pageBits float64
	streams  []*xrand.Source // one per die
	deadDie  []bool
	deadChan []bool
	probs    map[int]classProbs // P/E count → class boundaries
	// stormProbs caches the in-storm boundaries separately: the storm
	// adds StormRBER to every block, shifting the whole curve, and the
	// two caches must not mix or a post-storm read would reuse storm
	// odds.
	stormProbs map[int]classProbs
	stats      Stats
}

// NewInjector builds an injector for the flash geometry. The per-die
// streams fork deterministically from the seed, so two injectors with
// the same seed and configuration classify identical read sequences
// identically.
func NewInjector(fc config.Fault, fl config.Flash, seed uint64) *Injector {
	in := &Injector{
		cfg:        fc,
		pageBits:   float64(fl.PageSize) * 8,
		streams:    make([]*xrand.Source, fl.TotalDies()),
		deadDie:    make([]bool, fl.TotalDies()),
		deadChan:   make([]bool, fl.Channels),
		probs:      make(map[int]classProbs),
		stormProbs: make(map[int]classProbs),
	}
	master := xrand.New(seed ^ 0xFA017FA017)
	for i := range in.streams {
		in.streams[i] = master.Fork()
	}
	for _, d := range fc.DeadDies {
		in.deadDie[d] = true
	}
	for _, c := range fc.DeadChannels {
		in.deadChan[c] = true
	}
	return in
}

// DieDead reports whether the die is injected as failed.
func (in *Injector) DieDead(die int) bool { return in.deadDie[die] }

// ChannelDead reports whether the channel is injected as failed.
func (in *Injector) ChannelDead(ch int) bool { return in.deadChan[ch] }

// RouteChannel returns the channel a transfer for ch should actually
// use: ch itself when healthy, otherwise the next healthy channel
// (deterministically), counting the reroute. The queueing this piles
// onto the neighbor channel is the "widened queue" cost of the outage.
func (in *Injector) RouteChannel(ch int) int {
	if !in.deadChan[ch] {
		return ch
	}
	n := len(in.deadChan)
	for i := 1; i < n; i++ {
		c := (ch + i) % n
		if !in.deadChan[c] {
			in.stats.ChannelReroutes++
			return c
		}
	}
	return ch // unreachable: config validation rejects all-dead
}

// rber returns the raw bit error rate of a block at the given P/E
// count, with the storm excursion added while one is active.
func (in *Injector) rber(pe int, storm bool) float64 {
	r := in.cfg.BaseRBER + in.cfg.WearRBERPerPE*float64(pe) + in.cfg.RetentionRBER
	if storm {
		r += in.cfg.StormRBER
	}
	if r > 0.5 {
		r = 0.5
	}
	return r
}

// stormActive reports whether the uncorrectable-storm window covers
// simulated time now.
func (in *Injector) stormActive(now sim.Time) bool {
	return in.cfg.StormRBER > 0 && now >= in.cfg.StormStart && now < in.cfg.StormEnd
}

// boundaries returns (and caches) the cumulative class probabilities
// for one P/E count, from the in-storm cache when a storm is active.
func (in *Injector) boundaries(pe int, storm bool) classProbs {
	cache := in.probs
	if storm {
		cache = in.stormProbs
	}
	if p, ok := cache[pe]; ok {
		return p
	}
	lambda := in.rber(pe, storm) * in.pageBits
	p := classProbs{
		clean: poissonCDF(lambda, in.cfg.HardECCBits),
		retry: poissonCDF(lambda, in.cfg.RetryECCBits),
		soft:  poissonCDF(lambda, in.cfg.SoftECCBits),
	}
	cache[pe] = p
	return p
}

// poissonCDF returns P(X ≤ k) for X ~ Poisson(lambda), computed in log
// space so large λ (badly worn blocks) cannot underflow to garbage.
func poissonCDF(lambda float64, k int) float64 {
	if lambda <= 0 {
		return 1
	}
	logLambda := math.Log(lambda)
	sum := 0.0
	for i := 0; i <= k; i++ {
		lg, _ := math.Lgamma(float64(i + 1))
		sum += math.Exp(-lambda + float64(i)*logLambda - lg)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Classify draws one sense outcome for a page on (die, block), with no
// storm applied (time-independent callers: tests, tools).
func (in *Injector) Classify(die, block int) Outcome {
	return in.ClassifyAt(die, block, 0)
}

// ClassifyAt draws one sense outcome for a page on (die, block) at
// simulated time now. Every block reads at the configured
// InitialPECycles (no simulated work erases a block), so block does not
// change the odds. The uncorrectable-storm excursion applies when now
// falls inside the configured window. Exactly one value is consumed
// from the die's stream per call — dead die, storm, or not — so outcome
// sequences stay aligned across configurations that differ only in
// outage or storm injection.
func (in *Injector) ClassifyAt(die, block int, now sim.Time) Outcome {
	u := in.streams[die].Float64()
	in.stats.Reads++
	if in.deadDie[die] {
		in.stats.DeadDieReads++
		in.stats.Uncorrectable++
		return Outcome{
			Class:        Uncorrectable,
			RetrySenses:  in.cfg.MaxRetrySenses,
			ExtraDieTime: sim.Time(in.cfg.MaxRetrySenses) * in.cfg.RetrySenseTime,
			DieDead:      true,
		}
	}
	p := in.boundaries(in.cfg.InitialPECycles, in.stormActive(now))
	switch {
	case u < p.clean:
		in.stats.CleanReads++
		return Outcome{Class: Clean}
	case u < p.retry:
		// Deeper into the retry band → more Vref shifts were needed.
		frac := (u - p.clean) / (p.retry - p.clean)
		senses := 1 + int(frac*float64(in.cfg.MaxRetrySenses))
		if senses > in.cfg.MaxRetrySenses {
			senses = in.cfg.MaxRetrySenses
		}
		in.stats.RetryReads++
		in.stats.RetrySenses += uint64(senses)
		return Outcome{
			Class:        Retry,
			RetrySenses:  senses,
			ExtraDieTime: sim.Time(senses) * in.cfg.RetrySenseTime,
		}
	case u < p.soft:
		// Soft decode runs after the full retry ladder failed.
		in.stats.SoftReads++
		in.stats.RetrySenses += uint64(in.cfg.MaxRetrySenses)
		return Outcome{
			Class:        SoftDecode,
			RetrySenses:  in.cfg.MaxRetrySenses,
			ExtraDieTime: sim.Time(in.cfg.MaxRetrySenses) * in.cfg.RetrySenseTime,
			FirmwareTime: in.cfg.SoftDecodeTime,
		}
	default:
		in.stats.Uncorrectable++
		in.stats.RetrySenses += uint64(in.cfg.MaxRetrySenses)
		return Outcome{
			Class:        Uncorrectable,
			RetrySenses:  in.cfg.MaxRetrySenses,
			ExtraDieTime: sim.Time(in.cfg.MaxRetrySenses) * in.cfg.RetrySenseTime,
		}
	}
}

// Recovery-event notifications from the platform layer.

// NoteDegraded counts a read that completed without full correction.
func (in *Injector) NoteDegraded() { in.stats.DegradedReads++ }

// NoteRetiredBlock counts a block retirement.
func (in *Injector) NoteRetiredBlock() { in.stats.RetiredBlocks++ }

// NoteRemappedPage counts a page remapped into the spare region.
func (in *Injector) NoteRemappedPage() { in.stats.RemappedPages++ }

// NoteRelocation counts a whole-DirectGraph relocation.
func (in *Injector) NoteRelocation() { in.stats.Relocations++ }

// Stats returns a snapshot of the counters.
func (in *Injector) Stats() Stats { return in.stats }
