package config

import (
	"math"
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
	faulty := Default()
	faulty.Fault.Enabled = true
	if err := faulty.Validate(); err != nil {
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
	for _, ff := range floatFields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			mutations = append(mutations, func(c *Config) {
				c.Fault.Enabled = true
				*ff.field(c) = v
			})
		}
	}
	for i, mut := range mutations {
		c := Default()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

// floatFields are the float-valued fields Validate checks. The last
// four are Fault's, which only count while fault injection is enabled.
var floatFields = []struct {
	name  string
	field func(*Config) *float64
}{
	{"Flash.ChannelBW", func(c *Config) *float64 { return &c.Flash.ChannelBW }},
	{"DRAM.Bandwidth", func(c *Config) *float64 { return &c.DRAM.Bandwidth }},
	{"PCIe.Bandwidth", func(c *Config) *float64 { return &c.PCIe.Bandwidth }},
	{"SSDAccel.ClockHz", func(c *Config) *float64 { return &c.SSDAccel.ClockHz }},
	{"TPU.ClockHz", func(c *Config) *float64 { return &c.TPU.ClockHz }},
	{"Fault.BaseRBER", func(c *Config) *float64 { return &c.Fault.BaseRBER }},
	{"Fault.WearRBERPerPE", func(c *Config) *float64 { return &c.Fault.WearRBERPerPE }},
	{"Fault.RetentionRBER", func(c *Config) *float64 { return &c.Fault.RetentionRBER }},
	{"Fault.StormRBER", func(c *Config) *float64 { return &c.Fault.StormRBER }},
}

// FuzzConfigValidate sets the float fields Validate checks and the
// integer geometry it reads on top of Default(). Validate must never
// panic and never accept a non-finite float.
func FuzzConfigValidate(f *testing.F) {
	d := Default()
	f.Add(d.Flash.ChannelBW, d.DRAM.Bandwidth, d.PCIe.Bandwidth, d.SSDAccel.ClockHz, d.TPU.ClockHz,
		d.Fault.BaseRBER, d.Fault.WearRBERPerPE, d.Fault.RetentionRBER, d.Fault.StormRBER,
		d.Flash.Channels, d.Flash.DiesPerChannel, d.Flash.PageSize, d.Firmware.Cores, true)
	f.Add(math.NaN(), 1e9, 1e9, 1e9, 1e9, 0.0, 0.0, 0.0, 0.0, 16, 8, 4096, 4, false)
	f.Add(1e9, math.Inf(1), 1e9, 1e9, math.NaN(), 0.0, 0.0, 0.0, 0.0, 4, 2, 512, 1, false)
	f.Add(1e9, 1e9, 1e9, 1e9, 1e9, 1e-7, math.Inf(1), math.NaN(), 0.49, 2, 2, 32768, 8, true)
	f.Add(0.0, -1.0, 1e9, 0.0, math.Inf(-1), -1e-7, 0.0, 0.0, 0.5, 0, -1, 6000, 0, true)
	f.Fuzz(func(t *testing.T, chBW, dramBW, pcieBW, clock, tpuClock, base, wear, ret, storm float64,
		channels, dies, pageSize, cores int, faults bool) {
		c := Default()
		vals := []float64{chBW, dramBW, pcieBW, clock, tpuClock, base, wear, ret, storm}
		for i, ff := range floatFields {
			*ff.field(&c) = vals[i]
		}
		c.Flash.Channels, c.Flash.DiesPerChannel = channels, dies
		c.Flash.PageSize, c.Firmware.Cores = pageSize, cores
		c.Fault.Enabled = faults
		if c.Validate() != nil {
			return
		}
		checked := vals[:len(vals)-4]
		if faults {
			checked = vals
		}
		for _, v := range checked {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Validate accepted non-finite %v in %v", v, checked)
			}
		}
	})
}
