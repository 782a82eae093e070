package chaos

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{EngineFailRate: -0.1},
		{EngineFailRate: 1.1},
		{HTTPDropRate: 2},
		{EngineStall: -time.Second},
		{HTTPLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	c := Config{EngineStallRate: 0.5}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.EngineStall != 50*time.Millisecond || c.HTTPLatency != 100*time.Millisecond || c.EvictBurst != 4 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	if !c.Active() {
		t.Fatal("a config with a rate should be active")
	}
	if (&Config{Seed: 7}).Active() {
		t.Fatal("all-zero rates must not be active")
	}
}

// TestDrawDeterministicAndIndependent pins the determinism contract:
// the n-th decision for a (site, key) pair is the same no matter how
// many draws other pairs made in between, and a different seed moves
// every stream.
func TestDrawDeterministicAndIndependent(t *testing.T) {
	seq := func(in *Injector, site, key uint64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = in.draw(site, key)
		}
		return out
	}
	a := New(Config{Seed: 7})
	want := seq(a, siteEngineFail, 42, 8)

	// Interleave heavy traffic on other sites and keys.
	b := New(Config{Seed: 7})
	for i := 0; i < 1000; i++ {
		b.draw(siteHTTPDrop, uint64(i))
		b.draw(siteEngineFail, uint64(i)+1000)
	}
	if got := seq(b, siteEngineFail, 42, 8); !equalF(got, want) {
		t.Fatal("draw stream for (site, key) depends on other keys' traffic")
	}

	c := New(Config{Seed: 8})
	if got := seq(c, siteEngineFail, 42, 8); equalF(got, want) {
		t.Fatal("different seeds produced the same stream")
	}
	for _, u := range want {
		if u < 0 || u >= 1 {
			t.Fatalf("draw %g outside [0, 1)", u)
		}
	}
}

func TestDrawConcurrencySafe(t *testing.T) {
	in := New(Config{Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				in.draw(siteEngineStall, uint64(g))
			}
		}(g)
	}
	wg.Wait()
	// Each goroutine's key advanced exactly 500 times; the next draw is
	// therefore the 501st of that stream regardless of interleaving.
	ref := New(Config{Seed: 1})
	var want float64
	for i := 0; i <= 500; i++ {
		want = ref.draw(siteEngineStall, 3)
	}
	if got := in.draw(siteEngineStall, 3); got != want {
		t.Fatalf("concurrent interleaving perturbed a key's stream: %g != %g", got, want)
	}
}

func TestJitterUPureAndUniform(t *testing.T) {
	if JitterU(5, 2) != JitterU(5, 2) {
		t.Fatal("JitterU is not a pure function")
	}
	if JitterU(5, 2) == JitterU(5, 3) || JitterU(5, 2) == JitterU(6, 2) {
		t.Fatal("JitterU does not vary with its arguments")
	}
	var sum float64
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		u := JitterU(i, i%7)
		if u < 0 || u >= 1 {
			t.Fatalf("JitterU = %g outside [0, 1)", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("JitterU mean %g far from 0.5", mean)
	}
}

// TestBackoffGoldenSchedule pins the exact retry schedule for a known
// base and jitter coordinate — this is what makes retry timing a
// reviewable artifact rather than an emergent behaviour.
func TestBackoffGoldenSchedule(t *testing.T) {
	b := Backoff{Base: 100, Max: 10_000}
	// u = 0 ⇒ delay is exactly half the exponential envelope.
	golden := []int64{50, 100, 200, 400, 800, 1600, 3200, 5000, 5000}
	for attempt, want := range golden {
		if got := b.Delay(attempt, 0); got != want {
			t.Errorf("Delay(%d, 0) = %d, want %d", attempt, got, want)
		}
	}
	// u → 1 approaches the full envelope (never reaching it).
	if got := b.Delay(2, 0.999999); got < 395 || got >= 400 {
		t.Errorf("Delay(2, ~1) = %d, want just under 400", got)
	}
}

func TestBackoffOverflowClamps(t *testing.T) {
	b := Backoff{Base: int64(time.Second), Max: 0} // Max defaults to 8×Base
	for attempt := 0; attempt < 128; attempt++ {
		d := b.Delay(attempt, 0.5)
		if d <= 0 || d > 8*int64(time.Second) {
			t.Fatalf("Delay(%d) = %d overflowed or exceeded the ceiling", attempt, d)
		}
	}
	if d := (Backoff{Base: 1 << 62}).Delay(64, 0.9); d <= 0 {
		t.Fatalf("huge-base delay %d went non-positive", d)
	}
}

func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(0.5, 2) // starts full at burst 2
	if !b.Spend() || !b.Spend() {
		t.Fatal("full budget refused its burst")
	}
	if b.Spend() {
		t.Fatal("empty budget allowed a retry")
	}
	b.Earn() // +0.5: still below one token
	if b.Spend() {
		t.Fatal("half a token spent as a whole one")
	}
	b.Earn() // +0.5: one token
	if !b.Spend() {
		t.Fatal("earned token not spendable")
	}
	spent, denied := b.Stats()
	if spent != 3 || denied != 2 {
		t.Fatalf("stats = %d spent / %d denied, want 3/2", spent, denied)
	}
	if NewRetryBudget(0, 2).Spend() {
		t.Fatal("zero ratio must disable retries")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	var transitions []BreakerState
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 100})
	b.OnStateChange(func(st BreakerState) { transitions = append(transitions, st) })

	now := int64(0)
	if b.State() != Closed || !b.Allow(now) {
		t.Fatal("new breaker must be closed and admitting")
	}
	// Failures below the threshold keep it closed; a success resets.
	b.Record(now, false)
	b.Record(now, false)
	b.Record(now, true)
	b.Record(now, false)
	b.Record(now, false)
	if b.State() != Closed {
		t.Fatal("success did not reset the consecutive-failure count")
	}
	b.Record(now, false) // third consecutive: trip
	if b.State() != Open {
		t.Fatal("threshold failures did not trip the breaker")
	}
	if b.Allow(now + 50) {
		t.Fatal("open breaker admitted inside the cooldown")
	}
	// Cooldown elapsed: exactly one probe passes.
	if !b.Allow(now + 100) {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow(now + 101) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe fails: re-open, fresh cooldown.
	b.Record(now+110, false)
	if b.State() != Open || b.Allow(now+150) {
		t.Fatal("failed probe did not re-open with a fresh cooldown")
	}
	// Next probe succeeds: closed, and MTTR accounting reflects the
	// total open dwell across both trips.
	if !b.Allow(now + 250) {
		t.Fatal("second probe refused")
	}
	b.Record(now+260, true)
	if b.State() != Closed || !b.Allow(now+261) {
		t.Fatal("successful probe did not close the breaker")
	}
	st := b.Stats()
	if st.Trips != 2 || st.Closes != 1 {
		t.Fatalf("trips=%d closes=%d, want 2/1", st.Trips, st.Closes)
	}
	// Dwell accrues from the most recent trip (t=110) to the close
	// (t=260): MTTR measures the final recovery, not the full flap.
	if st.OpenTotal != 150 {
		t.Fatalf("open dwell = %d, want 150", st.OpenTotal)
	}
	want := []BreakerState{Open, HalfOpen, Open, HalfOpen, Closed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestBreakerCancelProbe(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 10})
	b.Record(0, false)
	if !b.Allow(10) {
		t.Fatal("probe refused after cooldown")
	}
	// The probe's request was cancelled by its client — that says
	// nothing about downstream health, so the slot reopens for the next
	// caller instead of wedging half-open forever.
	b.CancelProbe()
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open retained", b.State())
	}
	if !b.Allow(11) {
		t.Fatal("probe slot not released after cancellation")
	}
}

func TestInjectorDisarm(t *testing.T) {
	in := New(Config{Seed: 1, EngineFailRate: 1})
	if in.engineFault(nil, 1, 0) == nil {
		t.Fatal("armed injector at fail rate 1 did not fail the leaf")
	}
	in.Disarm()
	if err := in.engineFault(nil, 1, 0); err != nil {
		t.Fatalf("disarmed injector still injects: %v", err)
	}
}

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
