package ssd

import (
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/pool"
	"beacongnn/internal/sim"
)

// tinyCfg returns a deliberately small device: 2×2 dies, 8 blocks/die of
// 4 pages → 128 pages total, so GC triggers quickly.
func tinyCfg() config.Config {
	cfg := config.Default()
	cfg.Flash.Channels = 2
	cfg.Flash.DiesPerChannel = 2
	cfg.Flash.BlocksPerDie = 8
	cfg.Flash.PagesPerBlock = 4
	return cfg
}

func newDevice(t *testing.T) (*sim.Kernel, *Device) {
	t.Helper()
	k := sim.New()
	d, err := New(k, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Release)
	return k, d
}

func TestWriteReadRoundTrip(t *testing.T) {
	k, d := newDevice(t)
	var wErr, rErr error
	wrote := false
	d.Write(42, func(err error) {
		wErr = err
		wrote = true
		d.Read(42, func(err error) { rErr = err })
	})
	k.Run()
	if !wrote || wErr != nil || rErr != nil {
		t.Fatalf("write/read failed: %v %v", wErr, rErr)
	}
	if lat := k.Now(); lat < 100*sim.Microsecond {
		t.Fatalf("write+read completed implausibly fast: %v", lat)
	}
}

func TestReadUnmappedFails(t *testing.T) {
	k, d := newDevice(t)
	var got error
	d.Read(7, func(err error) { got = err })
	k.Run()
	if got == nil {
		t.Fatal("unmapped read succeeded")
	}
	_, _, reads, misses := d.Stats()
	if reads != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", reads, misses)
	}
}

func TestOverwritesTriggerGC(t *testing.T) {
	k, d := newDevice(t)
	// 128 pages; hammer 16 LPAs with 200 writes → many invalid pages →
	// GC must run and the device must not fill up.
	var failed error
	var issue func(n int)
	issue = func(n int) {
		if n >= 200 {
			return
		}
		d.Write(uint32(n%16), func(err error) {
			if err != nil && failed == nil {
				failed = err
			}
			issue(n + 1)
		})
	}
	issue(0)
	k.Run()
	if failed != nil {
		t.Fatalf("write failed mid-stream: %v", failed)
	}
	gcRuns, migrated := d.FTL.GCStats()
	if gcRuns == 0 {
		t.Fatal("GC never ran on a churned device")
	}
	if d.WriteAmplification() < 1 {
		t.Fatalf("write amplification = %v", d.WriteAmplification())
	}
	if migrated == 0 {
		// With only 16 live LPAs out of 128 pages, most victims are
		// fully invalid — but across many GC rounds some migration is
		// expected. Tolerate zero only if WA == 1.
		if d.WriteAmplification() > 1 {
			t.Fatal("WA > 1 but no migrations recorded")
		}
	}
	// All 16 LPAs must still read back.
	okReads := 0
	for l := 0; l < 16; l++ {
		d.Read(uint32(l), func(err error) {
			if err == nil {
				okReads++
			}
		})
	}
	k.Run()
	if okReads != 16 {
		t.Fatalf("only %d/16 LPAs readable after GC", okReads)
	}
	if d.FTL.FreeBlocks() < d.GCThreshold-1 {
		t.Fatalf("free blocks = %d after GC", d.FTL.FreeBlocks())
	}
}

func TestGCSparesDirectGraphBlocks(t *testing.T) {
	// Reserve DirectGraph rows first: regular writes and GC must never
	// touch them (Section VI-E isolation).
	k := sim.New()
	cfg := tinyCfg()
	d, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Release)
	first, count, err := d.FTL.ReserveForPages(8) // 2 rows = 8 blocks... row=4 blocks
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	var issue func(n int)
	issue = func(n int) {
		if n >= 120 {
			return
		}
		d.Write(uint32(n%10), func(err error) {
			if err != nil && failed == nil {
				failed = err
			}
			issue(n + 1)
		})
	}
	issue(0)
	k.Run()
	if failed != nil {
		t.Fatalf("write failed: %v", failed)
	}
	// No mapped LPA may point into the reserved range.
	for l := uint32(0); l < 10; l++ {
		if ppa, ok := d.FTL.Lookup(l); ok {
			if ppa >= first && ppa < first+count {
				t.Fatalf("LPA %d mapped into reserved page %d", l, ppa)
			}
		}
	}
}

func TestDeviceFullErrors(t *testing.T) {
	// Unique LPAs with no overwrites: once every block is consumed and
	// nothing is invalid, GC has no victim and writes must fail cleanly.
	k, d := newDevice(t)
	var firstErr error
	var issue func(n int)
	issue = func(n int) {
		if n >= 140 { // more than 128 pages
			return
		}
		d.Write(uint32(n), func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			issue(n + 1)
		})
	}
	issue(0)
	k.Run()
	if firstErr == nil {
		t.Fatal("overfilling the device did not error")
	}
}

// TestReleaseRecyclesSenseState checks that a released device hands its
// flash backend's free list on: the next device running the same
// workload draws every sense from it and constructs nothing.
func TestReleaseRecyclesSenseState(t *testing.T) {
	if pool.Disabled() {
		t.Skip("pooling disabled")
	}
	workload := func() {
		k, d := newDevice(t)
		for lpa := uint32(0); lpa < 16; lpa++ {
			lpa := lpa
			d.Write(lpa, func(error) { d.Read(lpa, func(error) {}) })
		}
		k.Run()
		d.Release()
	}
	workload()
	before := pool.Constructed()
	workload()
	if n := pool.Constructed() - before; n != 0 {
		t.Fatalf("second device constructed %d pooled objects, want 0", n)
	}
}
