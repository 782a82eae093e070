package dram

import (
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/sim"
)

func TestReadWriteAccounting(t *testing.T) {
	k := sim.New()
	d, err := New(k, config.Link{Bandwidth: 1e9, Latency: 0})
	if err != nil {
		t.Fatal(err)
	}
	var wEnd, rEnd sim.Time
	d.Write(1000, func() { wEnd = k.Now() })
	d.Read(500, func() { rEnd = k.Now() })
	k.Run()
	// 1 GB/s → 1 byte/ns: write 1000 ns, read queued after → 1500 ns.
	if wEnd != 1000 || rEnd != 1500 {
		t.Fatalf("wEnd=%v rEnd=%v", wEnd, rEnd)
	}
}

func TestEnergyHook(t *testing.T) {
	k := sim.New()
	d, _ := New(k, config.Link{Bandwidth: 1e9})
	total := 0
	d.OnBytes = func(n int) { total += n }
	d.Write(10, nil)
	d.Read(20, nil)
	k.Run()
	if total != 30 {
		t.Fatalf("hook total = %d", total)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(sim.New(), config.Link{Bandwidth: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestUtilizationAttaches(t *testing.T) {
	k := sim.New()
	d, _ := New(k, config.Link{Bandwidth: 1e9})
	u := sim.NewUtilization(4)
	d.SetUtilization(u)
	d.Write(100, nil)
	k.Run()
	if u.Peak() != 1 {
		t.Fatalf("peak = %d", u.Peak())
	}
}
