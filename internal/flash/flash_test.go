package flash

import (
	"testing"
	"testing/quick"

	"beacongnn/internal/config"
	"beacongnn/internal/sim"
)

func testCfg() config.Flash { return config.Default().Flash }

func TestGeometryStriping(t *testing.T) {
	g := NewGeometry(testCfg()) // 16 channels × 8 dies
	if g.Channel(0) != 0 || g.Channel(1) != 1 || g.Channel(16) != 0 {
		t.Fatal("channel striping wrong")
	}
	if g.DieInChannel(0) != 0 || g.DieInChannel(16) != 1 {
		t.Fatal("die striping wrong")
	}
	if g.GlobalDie(0) == g.GlobalDie(16) {
		t.Fatal("pages 0 and 16 should hit different dies")
	}
}

func TestGeometryCoversAllDies(t *testing.T) {
	g := NewGeometry(testCfg())
	seen := map[int]bool{}
	for p := uint32(0); p < 128; p++ {
		d := g.GlobalDie(p)
		if d < 0 || d >= 128 {
			t.Fatalf("die %d out of range", d)
		}
		seen[d] = true
	}
	if len(seen) != 128 {
		t.Fatalf("first 128 pages hit %d dies, want all 128", len(seen))
	}
}

func TestGeometryBlockOf(t *testing.T) {
	cfg := testCfg() // 256 pages/block, 128 dies
	g := NewGeometry(cfg)
	if g.BlockOf(0) != 0 {
		t.Fatal("page 0 should be block 0")
	}
	// Page index within die = page / 128; block = that / 256.
	p := uint32(128 * 256) // first page of block 1 on die 0
	if g.BlockOf(p) != 1 {
		t.Fatalf("BlockOf = %d, want 1", g.BlockOf(p))
	}
}

func TestGeometryPropertyDieInRange(t *testing.T) {
	g := NewGeometry(testCfg())
	f := func(p uint32) bool {
		d := g.GlobalDie(p)
		return d >= 0 && d < 128 && g.Channel(p) == d/8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadPageTiming(t *testing.T) {
	k := sim.New()
	b, err := New(k, testCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var senseAt, doneAt sim.Time
	b.ReadPage(0, 500*sim.Nanosecond, func(at sim.Time) { senseAt = at }, func() { doneAt = k.Now() })
	k.Run()
	if senseAt != 0 {
		t.Fatalf("sense started at %v", senseAt)
	}
	if doneAt != 3*sim.Microsecond+500*sim.Nanosecond {
		t.Fatalf("done at %v, want 3.5µs", doneAt)
	}
	if b.Reads() != 1 {
		t.Fatalf("reads = %d", b.Reads())
	}
}

func TestSameDiePlaneParallelism(t *testing.T) {
	// Fig. 10: a two-plane die senses two pages concurrently; a third
	// queues behind a plane.
	k := sim.New()
	b, _ := New(k, testCfg(), 0) // PlanesPerDie = 2
	var done []sim.Time
	g := b.Geometry()
	if g.GlobalDie(0) != g.GlobalDie(2048) || g.GlobalDie(0) != g.GlobalDie(4096) {
		t.Fatal("test pages not on same die")
	}
	for _, p := range []uint32{0, 2048, 4096} {
		b.ReadPage(p, 0, nil, func() { done = append(done, k.Now()) })
	}
	k.Run()
	if done[0] != 3*sim.Microsecond || done[1] != 3*sim.Microsecond {
		t.Fatalf("planes did not sense in parallel: %v", done)
	}
	if done[2] != 6*sim.Microsecond {
		t.Fatalf("third read should queue: %v", done)
	}
}

func TestSharedSamplerSerializes(t *testing.T) {
	// The two planes share one sampler: concurrent senses complete
	// together, but their on-die processing serializes.
	k := sim.New()
	b, _ := New(k, testCfg(), 0)
	var done []sim.Time
	const extra = 1 * sim.Microsecond
	b.ReadPage(0, extra, nil, func() { done = append(done, k.Now()) })
	b.ReadPage(2048, extra, nil, func() { done = append(done, k.Now()) })
	k.Run()
	// Sense both at [0,3µs]; sampler runs 3→4 then 4→5.
	if done[0] != 4*sim.Microsecond || done[1] != 5*sim.Microsecond {
		t.Fatalf("sampler did not serialize: %v", done)
	}
}

func TestDifferentDiesParallel(t *testing.T) {
	k := sim.New()
	b, _ := New(k, testCfg(), 0)
	var done []sim.Time
	b.ReadPage(0, 0, nil, func() { done = append(done, k.Now()) })
	b.ReadPage(1, 0, nil, func() { done = append(done, k.Now()) })
	k.Run()
	if done[0] != 3*sim.Microsecond || done[1] != 3*sim.Microsecond {
		t.Fatalf("parallel dies: done = %v", done)
	}
}

func TestTransferOccupiesChannel(t *testing.T) {
	cfg := testCfg()
	k := sim.New()
	b, _ := New(k, cfg, 0)
	var ends []sim.Time
	b.Transfer(0, 4096, 0, func() { ends = append(ends, k.Now()) })
	b.Transfer(0, 4096, 0, func() { ends = append(ends, k.Now()) })
	k.Run()
	per := cfg.TransferTime(4096)
	if ends[0] != per || ends[1] != 2*per {
		t.Fatalf("ends = %v, want %v and %v", ends, per, 2*per)
	}
	if b.BusBytes() != 8192 {
		t.Fatalf("bus bytes = %d", b.BusBytes())
	}
}

func TestProgramPageTiming(t *testing.T) {
	cfg := testCfg()
	k := sim.New()
	b, _ := New(k, cfg, 0)
	var progDone sim.Time
	b.ProgramPage(0, func() { progDone = k.Now() })
	k.Run()
	want := cfg.TransferTime(cfg.PageSize) + cfg.ProgramLatency
	if progDone != want {
		t.Fatalf("program done %v, want %v", progDone, want)
	}
}

func TestEnergyHooks(t *testing.T) {
	k := sim.New()
	b, _ := New(k, testCfg(), 0)
	reads, bytes := 0, 0
	b.OnRead = func() { reads++ }
	b.OnTransfer = func(n int) { bytes += n }
	b.ReadPage(0, 0, nil, nil)
	b.Transfer(0, 100, 0, nil)
	k.Run()
	if reads != 1 || bytes != 100 {
		t.Fatalf("hooks: reads=%d bytes=%d", reads, bytes)
	}
}

func TestFig7ChannelContentionShape(t *testing.T) {
	// Figure 7a: moving from 1 to 8 active ULL dies on one channel gains
	// only ~49 % throughput while average latency rises ~7.7×.
	cfg := testCfg()
	one, err := RunChannelContention(cfg, 1, 2*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunChannelContention(cfg, 8, 2*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	gain := eight.Throughput/one.Throughput - 1
	latRatio := float64(eight.AvgLatency) / float64(one.AvgLatency)
	if gain < 0.2 || gain > 1.2 {
		t.Errorf("throughput gain 1→8 dies = %.2f, paper ≈ 0.49", gain)
	}
	if latRatio < 4 || latRatio > 12 {
		t.Errorf("latency ratio 1→8 dies = %.2f, paper ≈ 7.7", latRatio)
	}
	if eight.ChannelBusFrac < 0.95 {
		t.Errorf("8 dies should saturate the channel bus, util = %.2f", eight.ChannelBusFrac)
	}
}

func TestContentionValidation(t *testing.T) {
	if _, err := RunChannelContention(testCfg(), 0, sim.Millisecond); err == nil {
		t.Fatal("0 dies accepted")
	}
	if _, err := RunChannelContention(testCfg(), 99, sim.Millisecond); err == nil {
		t.Fatal("too many dies accepted")
	}
}

func TestUtilizationTracksDies(t *testing.T) {
	k := sim.New()
	b, _ := New(k, testCfg(), 64)
	for p := uint32(0); p < 16; p++ {
		b.ReadPage(p, 0, nil, nil)
	}
	k.Run()
	if b.DieUtil.Peak() != 16 {
		t.Fatalf("die peak = %d, want 16", b.DieUtil.Peak())
	}
	if len(b.DieUtil.Timeline()) == 0 {
		t.Fatal("timeline empty")
	}
}

func TestMultiPlaneSamplerSerializesAcrossWaves(t *testing.T) {
	// Three same-die reads on a two-plane die: senses run two at a time,
	// but every on-die sampler invocation serializes on the shared unit —
	// including across sense waves.
	cfg := testCfg()
	if cfg.PlanesPerDie != 2 {
		t.Fatalf("test assumes 2 planes, config has %d", cfg.PlanesPerDie)
	}
	k := sim.New()
	b, _ := New(k, cfg, 0)
	const extra = 1 * sim.Microsecond
	var done []sim.Time
	// Pages 0, 2048, 4096 all map to die 0 (page/16 is a multiple of 8).
	for _, p := range []uint32{0, 2048, 4096} {
		b.ReadPage(p, extra, nil, func() { done = append(done, k.Now()) })
	}
	k.Run()
	// Senses: both planes [0,3µs], third read [3µs,6µs].
	// Sampler: 3→4, 4→5, then 6→7 after the third sense lands.
	want := []sim.Time{4 * sim.Microsecond, 5 * sim.Microsecond, 7 * sim.Microsecond}
	if len(done) != 3 || done[0] != want[0] || done[1] != want[1] || done[2] != want[2] {
		t.Fatalf("completions = %v, want %v", done, want)
	}
}
