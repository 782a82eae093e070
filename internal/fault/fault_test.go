package fault

import (
	"math"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/sim"
)

// testGeometry is a small flash config: 4 channels × 2 dies, 4 KB pages
// (32768 page bits, so λ = RBER × 32768).
func testGeometry() config.Flash {
	fl := config.Default().Flash
	fl.Channels = 4
	fl.DiesPerChannel = 2
	return fl
}

func testFault() config.Fault {
	return config.DefaultFault()
}

// drawMany classifies n senses on one die and returns the class counts.
func drawMany(in *Injector, die, n int) map[Class]int {
	out := map[Class]int{}
	for i := 0; i < n; i++ {
		out[in.Classify(die, 0).Class]++
	}
	return out
}

// The Poisson CDF must be a proper distribution function: 1 at λ=0,
// nondecreasing in k, nonincreasing in λ, and inside [0, 1] even for
// the huge λ of a badly worn block (the log-space computation exists
// exactly so that case cannot underflow into garbage).
func TestPoissonCDF(t *testing.T) {
	if got := poissonCDF(0, 10); got != 1 {
		t.Fatalf("poissonCDF(0, 10) = %g, want 1", got)
	}
	for _, lambda := range []float64{0.01, 1, 50, 150, 16384} {
		prev := -1.0
		for _, k := range []int{0, 10, 72, 120, 200} {
			p := poissonCDF(lambda, k)
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("poissonCDF(%g, %d) = %g outside [0, 1]", lambda, k, p)
			}
			if p < prev {
				t.Fatalf("poissonCDF(%g, ·) decreased at k=%d: %g < %g", lambda, k, p, prev)
			}
			prev = p
		}
	}
	for _, k := range []int{72, 200} {
		prev := 2.0
		for _, lambda := range []float64{0.1, 10, 100, 1000} {
			p := poissonCDF(lambda, k)
			// 1e-12 absorbs summation ulps when both values are ≈1.
			if p > prev+1e-12 {
				t.Fatalf("poissonCDF(·, %d) increased at λ=%g", k, lambda)
			}
			prev = p
		}
	}
}

// The RBER curve is Base + Wear·PE + Retention, capped at 0.5; class
// boundaries derived from it must be ordered clean ≤ retry ≤ soft.
func TestRBERAndBoundaries(t *testing.T) {
	fc := testFault()
	fc.BaseRBER = 1e-4
	fc.WearRBERPerPE = 1e-6
	fc.RetentionRBER = 5e-5
	in := NewInjector(fc, testGeometry(), 1)

	// Mirror the implementation's addition order: the compiler folds
	// literal sums in arbitrary precision, which differs at the ulp.
	if got, want := in.rber(0, false), fc.BaseRBER+fc.WearRBERPerPE*0+fc.RetentionRBER; got != want {
		t.Fatalf("rber(0) = %g, want %g", got, want)
	}
	if got, want := in.rber(100, false), fc.BaseRBER+fc.WearRBERPerPE*100+fc.RetentionRBER; got != want {
		t.Fatalf("rber(100) = %g, want %g", got, want)
	}
	if got := in.rber(1<<30, false); got != 0.5 {
		t.Fatalf("rber cap: got %g, want 0.5", got)
	}
	for _, pe := range []int{0, 1000, 100000} {
		p := in.boundaries(pe, false)
		if !(p.clean >= 0 && p.clean <= p.retry && p.retry <= p.soft && p.soft <= 1) {
			t.Fatalf("boundaries(%d) unordered: %+v", pe, p)
		}
	}
	// More wear → lower clean probability.
	if in.boundaries(200000, false).clean >= in.boundaries(0, false).clean {
		t.Fatalf("wear did not reduce the clean probability")
	}
}

// Classification thresholds at the three λ regimes: λ ≪ HardECCBits is
// always clean, λ between the hard and retry thresholds is dominated by
// retries, and λ ≫ SoftECCBits is always uncorrectable. The page is
// 32768 bits, so λ = RBER × 32768 against ECC tiers 72/120/200.
func TestClassifyThresholds(t *testing.T) {
	const n = 2000
	cases := []struct {
		name string
		rber float64
		want func(t *testing.T, got map[Class]int)
	}{
		{"fresh-block-all-clean", 1e-7, func(t *testing.T, got map[Class]int) {
			if got[Clean] != n {
				t.Errorf("λ≈0.003: %v, want all %d clean", got, n)
			}
		}},
		{"retry-band", 100.0 / 32768, func(t *testing.T, got map[Class]int) {
			if got[Retry] < n/2 {
				t.Errorf("λ=100: %v, want retry-dominated", got)
			}
			if got[Clean] == n {
				t.Errorf("λ=100 produced no ECC events")
			}
		}},
		{"soft-band", 150.0 / 32768, func(t *testing.T, got map[Class]int) {
			if got[SoftDecode] < n/2 {
				t.Errorf("λ=150: %v, want soft-decode-dominated", got)
			}
		}},
		{"worn-out-all-uncorrectable", 0.4, func(t *testing.T, got map[Class]int) {
			if got[Uncorrectable] != n {
				t.Errorf("λ≈13107: %v, want all %d uncorrectable", got, n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := testFault()
			fc.BaseRBER = tc.rber
			in := NewInjector(fc, testGeometry(), 7)
			got := drawMany(in, 0, n)
			tc.want(t, got)
			st := in.Stats()
			if st.Reads != n || st.CleanReads+st.RetryReads+st.SoftReads+st.Uncorrectable != n {
				t.Errorf("class counters don't partition reads: %+v", st)
			}
		})
	}
}

// Retry outcomes must charge between 1 and MaxRetrySenses extra senses
// and the matching die time; soft decode always pays the full ladder
// plus firmware time.
func TestOutcomeCosts(t *testing.T) {
	fc := testFault()
	fc.BaseRBER = 100.0 / 32768
	in := NewInjector(fc, testGeometry(), 3)
	for i := 0; i < 1000; i++ {
		o := in.Classify(0, 0)
		switch o.Class {
		case Clean:
			if o.RetrySenses != 0 || o.ExtraDieTime != 0 || o.FirmwareTime != 0 {
				t.Fatalf("clean outcome carries costs: %+v", o)
			}
		case Retry:
			if o.RetrySenses < 1 || o.RetrySenses > fc.MaxRetrySenses {
				t.Fatalf("retry senses %d outside [1, %d]", o.RetrySenses, fc.MaxRetrySenses)
			}
			if o.ExtraDieTime != sim.Time(o.RetrySenses)*fc.RetrySenseTime {
				t.Fatalf("retry die time %v for %d senses", o.ExtraDieTime, o.RetrySenses)
			}
		case SoftDecode:
			if o.RetrySenses != fc.MaxRetrySenses || o.FirmwareTime != fc.SoftDecodeTime {
				t.Fatalf("soft-decode costs wrong: %+v", o)
			}
		}
	}
}

// Per-die seeding: same (seed, config) must classify identically, die
// streams must be independent (reading die 0 never perturbs die 1's
// sequence), and a different seed must diverge.
func TestPerDieSeedingDeterminism(t *testing.T) {
	fc := testFault()
	fc.BaseRBER = 100.0 / 32768 // mixed classes so sequences are informative
	geom := testGeometry()

	a := NewInjector(fc, geom, 42)
	b := NewInjector(fc, geom, 42)
	// a reads die 1 only; b interleaves heavy die-0 traffic. Die 1's
	// outcome sequence must be identical anyway.
	for i := 0; i < 500; i++ {
		for j := 0; j < 3; j++ {
			b.Classify(0, 0)
		}
		oa, ob := a.Classify(1, 0), b.Classify(1, 0)
		if oa != ob {
			t.Fatalf("die-1 sequence diverged at %d: %+v vs %+v", i, oa, ob)
		}
	}

	c := NewInjector(fc, geom, 43)
	same := 0
	for i := 0; i < 500; i++ {
		if a.Classify(2, 0) == c.Classify(2, 0) {
			same++
		}
	}
	if same == 500 {
		t.Fatalf("seeds 42 and 43 produced identical die-2 sequences")
	}
}

// Wear: a device with more P/E cycles must fail more. Every block reads
// at InitialPECycles, so a worn device degrades where a fresh one stays
// clean.
func TestInitialPECyclesRaiseFailures(t *testing.T) {
	fc := testFault()
	fc.BaseRBER = 60.0 / 32768 // fresh blocks mostly clean
	fc.WearRBERPerPE = 1e-6    // 200k P/E → λ ≈ 6600, far past the soft tier
	fresh := NewInjector(fc, testGeometry(), 9)
	fc.InitialPECycles = 200000
	worn := NewInjector(fc, testGeometry(), 9)
	clean, degraded := 0, 0
	for i := 0; i < 500; i++ {
		if fresh.Classify(0, 0).Class == Clean {
			clean++
		}
		if o := worn.Classify(0, 1); o.Class == SoftDecode || o.Class == Uncorrectable {
			degraded++
		}
	}
	if clean < 400 {
		t.Fatalf("fresh device only %d/500 clean", clean)
	}
	if degraded < 400 {
		t.Fatalf("worn device only %d/500 degraded", degraded)
	}
}

// Outage sampling: a dead die classifies every sense uncorrectable with
// the DieDead marker, still consumes exactly one draw (so healthy dies
// stay aligned with a no-outage run), and dead channels route to the
// next healthy channel deterministically.
func TestOutageSampling(t *testing.T) {
	fc := testFault()
	fc.BaseRBER = 100.0 / 32768
	fc.DeadDies = []int{3}
	geom := testGeometry()
	in := NewInjector(fc, geom, 11)
	clean := NewInjector(testFaultWithRBER(fc.BaseRBER), geom, 11)

	if !in.DieDead(3) || in.DieDead(0) {
		t.Fatalf("DieDead map wrong: die3=%v die0=%v", in.DieDead(3), in.DieDead(0))
	}
	for i := 0; i < 100; i++ {
		o := in.Classify(3, 0)
		if o.Class != Uncorrectable || !o.DieDead {
			t.Fatalf("dead-die sense %d classified %+v", i, o)
		}
		// Healthy dies must be unaffected by the die-3 outage.
		if oa, ob := in.Classify(0, 0), clean.Classify(0, 0); oa != ob {
			t.Fatalf("die-0 sequence diverged from no-outage run at %d: %+v vs %+v", i, oa, ob)
		}
	}
	st := in.Stats()
	if st.DeadDieReads != 100 || st.Uncorrectable < 100 {
		t.Fatalf("outage counters wrong: %+v", st)
	}
}

func testFaultWithRBER(r float64) config.Fault {
	fc := config.DefaultFault()
	fc.BaseRBER = r
	return fc
}

func TestRouteChannel(t *testing.T) {
	fc := testFault()
	fc.DeadChannels = []int{1, 2}
	in := NewInjector(fc, testGeometry(), 5) // 4 channels
	if got := in.RouteChannel(0); got != 0 {
		t.Fatalf("healthy channel rerouted to %d", got)
	}
	if got := in.RouteChannel(1); got != 3 {
		t.Fatalf("channel 1 routed to %d, want 3 (skip dead 2)", got)
	}
	if got := in.RouteChannel(2); got != 3 {
		t.Fatalf("channel 2 routed to %d, want 3", got)
	}
	if !in.ChannelDead(1) || in.ChannelDead(0) {
		t.Fatalf("ChannelDead map wrong")
	}
	if st := in.Stats(); st.ChannelReroutes != 2 {
		t.Fatalf("ChannelReroutes = %d, want 2", st.ChannelReroutes)
	}
}

// The recovery notification counters are simple but load-bearing for
// the reliability report; pin them.
func TestRecoveryNotes(t *testing.T) {
	in := NewInjector(testFault(), testGeometry(), 1)
	in.NoteDegraded()
	in.NoteRetiredBlock()
	in.NoteRetiredBlock()
	in.NoteRemappedPage()
	in.NoteRelocation()
	st := in.Stats()
	if st.DegradedReads != 1 || st.RetiredBlocks != 2 || st.RemappedPages != 1 || st.Relocations != 1 {
		t.Fatalf("recovery counters wrong: %+v", st)
	}
}
