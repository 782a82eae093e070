package config

import (
	"testing"

	"beacongnn/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Traditional().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMatchesPaperAnchors(t *testing.T) {
	c := Default()
	if c.Flash.Channels != 16 || c.Flash.DiesPerChannel != 8 {
		t.Fatalf("geometry %d×%d; Fig. 15 states 16 channels, 128 dies", c.Flash.Channels, c.Flash.DiesPerChannel)
	}
	if c.Flash.ReadLatency != 3*sim.Microsecond {
		t.Fatalf("ULL read latency = %v; §I states 3 µs", c.Flash.ReadLatency)
	}
	if c.Flash.ChannelBW != 800e6 {
		t.Fatalf("channel BW = %v; Fig. 18b centers on 800 MB/s", c.Flash.ChannelBW)
	}
	if c.Flash.PageSize != 4096 {
		t.Fatalf("page size = %d; §IV-A uses 4 KB", c.Flash.PageSize)
	}
	if c.GNN.Hops != 3 || c.GNN.Fanout != 3 || c.GNN.SubgraphNodes() != 40 {
		t.Fatalf("GNN task %+v; §VII-A uses 3 hops × 3 → 40 nodes", c.GNN)
	}
	if c.GNN.HiddenDim != 128 || c.GNN.BatchSize != 64 {
		t.Fatalf("GNN dims %+v", c.GNN)
	}
}

func TestTraditionalIs20Microseconds(t *testing.T) {
	if Traditional().Flash.ReadLatency != 20*sim.Microsecond {
		t.Fatalf("traditional read = %v; §VII-E uses 20 µs", Traditional().Flash.ReadLatency)
	}
}

func TestCapacityIsComfortable(t *testing.T) {
	c := Default().Flash
	// The modelled device needs tens of GB — enough that any simulated
	// dataset's pages fit with room for regular data.
	if c.TotalBytes() < 32<<30 {
		t.Fatalf("capacity = %d bytes, too small", c.TotalBytes())
	}
}

func TestTransferTimes(t *testing.T) {
	c := Default().Flash
	page := c.PageTransferTime()
	if page < 5*sim.Microsecond || page > 6*sim.Microsecond {
		t.Fatalf("4 KB @ 800 MB/s = %v, want ≈5.12 µs", page)
	}
	small := c.TransferTime(400)
	if small >= page {
		t.Fatal("result-granular transfer not cheaper than a page")
	}
	if small <= c.CmdOverhead {
		t.Fatal("transfer time missing payload component")
	}
}

func TestValidationCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Flash.Channels = 0 },
		func(c *Config) { c.Flash.PageSize = 100 },
		func(c *Config) { c.Flash.PageSize = 6000 },  // not a power of two
		func(c *Config) { c.Flash.PageSize = 65536 }, // DirectGraph section lengths are 16-bit
		func(c *Config) { c.Flash.ChannelBW = 0 },
		func(c *Config) { c.Flash.ReadLatency = 0 },
		func(c *Config) { c.Flash.BlocksPerDie = 0 },
		func(c *Config) { c.Firmware.Cores = 0 },
		func(c *Config) { c.DRAM.Bandwidth = 0 },
		func(c *Config) { c.PCIe.Bandwidth = 0 },
		func(c *Config) { c.GNN.Hops = 0 },
		func(c *Config) { c.GNN.BatchSize = 0 },
		func(c *Config) { c.SSDAccel.Rows = 0 },
	}
	for i, mut := range mutations {
		c := Default()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}
