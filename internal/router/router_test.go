package router

import (
	"math/rand"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/directgraph"
	"beacongnn/internal/flash"
	"beacongnn/internal/sampler"
	"beacongnn/internal/sim"
)

func setup(t *testing.T) (*sim.Kernel, *flash.Backend, *Router, directgraph.Layout) {
	t.Helper()
	k := sim.New()
	cfg := config.Default().Flash
	b, err := flash.New(k, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := New(k, b, 0, 0)
	l := directgraph.Layout{PageSize: cfg.PageSize, FeatureDim: 0}
	return k, b, r, l
}

func cmdFor(l directgraph.Layout, page uint32) sampler.Command {
	return sampler.Command{Addr: l.MakeAddr(page, 0)}
}

func TestValidateRequiresExec(t *testing.T) {
	_, _, r, _ := setup(t)
	if err := r.Validate(); err == nil {
		t.Fatal("missing Exec accepted")
	}
	r.Exec = func(sampler.Command, func(), func([]sampler.Command)) {}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRouteExecutesOnCorrectDie(t *testing.T) {
	k, b, r, l := setup(t)
	var got []uint32
	r.Exec = func(cmd sampler.Command, release func(), done func([]sampler.Command)) {
		got = append(got, uint32(cmd.Addr)>>l.SectionBits())
		done(nil)
	}
	r.Route(-1, cmdFor(l, 5))
	r.Route(-1, cmdFor(l, 21)) // same channel (5 % 16 == 21 % 16), different die
	k.Run()
	if len(got) != 2 || got[0] != 5 || got[1] != 21 {
		t.Fatalf("executed pages = %v", got)
	}
	if b.Geometry().Channel(5) != b.Geometry().Channel(21) {
		t.Fatal("test pages should share a channel")
	}
}

func TestFollowUpCommandsStream(t *testing.T) {
	// A command on page 0 spawns commands on pages 1 and 2 (different
	// channels); they must execute without any firmware involvement.
	k, _, r, l := setup(t)
	executed := map[uint32]bool{}
	r.Exec = func(cmd sampler.Command, release func(), done func([]sampler.Command)) {
		page := uint32(cmd.Addr) >> l.SectionBits()
		executed[page] = true
		if page == 0 {
			done([]sampler.Command{cmdFor(l, 1), cmdFor(l, 2)})
			return
		}
		done(nil)
	}
	r.Route(-1, cmdFor(l, 0))
	k.Run()
	for _, p := range []uint32{0, 1, 2} {
		if !executed[p] {
			t.Fatalf("page %d never executed", p)
		}
	}
	st := r.Stats()
	if st.Routed != 3 {
		t.Fatalf("routed = %d", st.Routed)
	}
	if st.ParsedCmds != 2 {
		t.Fatalf("parsed = %d", st.ParsedCmds)
	}
	if st.CrossHops != 2 {
		t.Fatalf("cross hops = %d (pages 1,2 are on other channels)", st.CrossHops)
	}
}

func TestSameDiePlaneLimit(t *testing.T) {
	// A two-plane die accepts two routed commands concurrently; a third
	// waits in the dispatch queue until a plane releases.
	k, b, r, l := setup(t)
	cfg := b.Config()                                   // PlanesPerDie = 2
	stride := uint32(cfg.Channels * cfg.DiesPerChannel) // same die, next page
	var ends []sim.Time
	r.Exec = func(cmd sampler.Command, release func(), done func([]sampler.Command)) {
		b.ReadPage(uint32(cmd.Addr)>>l.SectionBits(), 0, nil, func() {
			ends = append(ends, k.Now())
			release()
			done(nil)
		})
	}
	for i := uint32(0); i < 3; i++ {
		r.Route(-1, cmdFor(l, i*stride))
	}
	k.Run()
	if len(ends) != 3 {
		t.Fatalf("executed %d", len(ends))
	}
	// First two overlap (two planes); third runs a full sense later.
	if ends[1]-ends[0] >= 3*sim.Microsecond {
		t.Fatalf("planes did not overlap: %v", ends)
	}
	if ends[2]-ends[0] < 3*sim.Microsecond {
		t.Fatalf("third command did not wait for a plane: %v", ends)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Two dies on one channel, many commands each: executions must
	// alternate rather than draining one queue first.
	k, _, r, l := setup(t)
	var order []uint32
	r.Exec = func(cmd sampler.Command, release func(), done func([]sampler.Command)) {
		order = append(order, uint32(cmd.Addr)>>l.SectionBits())
		done(nil)
	}
	// Pages 0 and 16 are channel 0, dies 0 and 1.
	for i := 0; i < 3; i++ {
		r.Route(-1, cmdFor(l, 0))
		r.Route(-1, cmdFor(l, 16))
	}
	k.Run()
	if len(order) != 6 {
		t.Fatalf("executed %d", len(order))
	}
	// Both dies must appear in the first two issues (RR, not FIFO-drain).
	if order[0] == order[1] {
		t.Fatalf("issuer not round-robin: %v", order)
	}
}

func TestQueuedCommandsDrains(t *testing.T) {
	k, _, r, l := setup(t)
	r.Exec = func(cmd sampler.Command, release func(), done func([]sampler.Command)) { done(nil) }
	for i := 0; i < 10; i++ {
		r.Route(-1, cmdFor(l, uint32(i)))
	}
	k.Run()
	for i := range r.q.dispatch {
		if n := r.q.dispatch[i].len(); n != 0 {
			t.Fatalf("dispatch queue %d holds %d commands after drain", i, n)
		}
	}
	if r.Stats().MaxQueue < 1 {
		t.Fatal("max queue never recorded")
	}
}

func TestOnRoutedHook(t *testing.T) {
	k, _, r, l := setup(t)
	n := 0
	r.OnRouted = func() { n++ }
	r.Exec = func(cmd sampler.Command, release func(), done func([]sampler.Command)) { done(nil) }
	r.Route(-1, cmdFor(l, 3))
	k.Run()
	if n != 1 {
		t.Fatalf("hook fired %d times", n)
	}
}

// scanPick is the issuer's original die selection, kept as the reference
// for pick: scan the channel's dies from the round-robin pointer and
// take the first with a free plane and a queued command.
func scanPick(r *Router, channel int) int {
	d := r.cfg.DiesPerChannel
	for i := 0; i < d; i++ {
		idx := (r.rrNext[channel] + i) % d
		die := channel*d + idx
		if r.inFlight[die] < r.planes && r.q.dispatch[die].len() > 0 {
			return idx
		}
	}
	return -1
}

// TestPickMatchesScan drives random arrive/issue/release sequences
// through the ready bitset and asserts every pick equals the reference
// scan's, across die counts below, at and above one 64-bit word.
func TestPickMatchesScan(t *testing.T) {
	for _, g := range []struct{ channels, dies, planes int }{
		{2, 4, 1}, {3, 8, 2}, {2, 63, 1}, {2, 64, 2}, {2, 65, 1}, {1, 130, 3},
	} {
		k := sim.New()
		cfg := config.Default().Flash
		cfg.Channels, cfg.DiesPerChannel, cfg.PlanesPerDie = g.channels, g.dies, g.planes
		b, err := flash.New(k, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := New(k, b, 0, 0)
		rng := rand.New(rand.NewSource(int64(g.dies)))
		var running []int // dies with a command in flight, one entry per plane
		picks := 0
		for step := 0; step < 20_000; step++ {
			ch := rng.Intn(g.channels)
			switch op := rng.Intn(10); {
			case op < 4: // arrive
				die := ch*g.dies + rng.Intn(g.dies)
				r.q.dispatch[die].push(sampler.Command{})
				r.markReady(die)
			case op < 7 && len(running) > 0: // release
				i := rng.Intn(len(running))
				die := running[i]
				running = append(running[:i], running[i+1:]...)
				r.inFlight[die]--
				r.markReady(die)
			default: // issue until the channel has no ready die
				for {
					want, got := scanPick(r, ch), r.pick(ch)
					if got != want {
						t.Fatalf("%+v step %d: pick(%d) = %d, scan = %d", g, step, ch, got, want)
					}
					if got < 0 {
						break
					}
					die, _ := r.take(ch, got)
					running = append(running, die)
					picks++
				}
			}
		}
		if picks == 0 {
			t.Fatalf("%+v: no command was ever issued", g)
		}
	}
}
