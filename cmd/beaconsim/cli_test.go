package main

import (
	"io"
	"strings"
	"testing"

	"beacongnn/internal/platform"
	"beacongnn/internal/sim"
)

func TestParseCLIValid(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		check func(t *testing.T, c *cliConfig)
	}{
		{"defaults", nil, func(t *testing.T, c *cliConfig) {
			if len(c.kinds) != 1 || c.kinds[0] != platform.BG2 {
				t.Errorf("default platform = %v, want [BG-2]", c.kinds)
			}
			if c.dataset.Name != "amazon" || c.nodes != 10000 || c.batches != 6 {
				t.Errorf("defaults wrong: %+v", c)
			}
			if c.check || c.cfg.Fault.Enabled {
				t.Errorf("check/faults default on")
			}
		}},
		{"platform-list", []string{"-platform", "CC,BG-1,BG-2"}, func(t *testing.T, c *cliConfig) {
			want := []platform.Kind{platform.CC, platform.BG1, platform.BG2}
			if len(c.kinds) != 3 || c.kinds[0] != want[0] || c.kinds[1] != want[1] || c.kinds[2] != want[2] {
				t.Errorf("kinds = %v, want %v", c.kinds, want)
			}
		}},
		{"platform-all", []string{"-platform", "all"}, func(t *testing.T, c *cliConfig) {
			if len(c.kinds) != len(platform.All()) {
				t.Errorf("all expands to %d kinds", len(c.kinds))
			}
		}},
		{"check", []string{"-check"}, func(t *testing.T, c *cliConfig) {
			if !c.check {
				t.Errorf("-check not parsed")
			}
		}},
		{"overrides", []string{"-channels", "8", "-dies", "2", "-cores", "6", "-batch", "32", "-read-latency", "20us", "-parallel", "2"}, func(t *testing.T, c *cliConfig) {
			cfg := c.cfg
			if cfg.Flash.Channels != 8 || cfg.Flash.DiesPerChannel != 2 || cfg.Firmware.Cores != 6 || cfg.GNN.BatchSize != 32 {
				t.Errorf("overrides not applied: %+v", cfg)
			}
			if cfg.Flash.ReadLatency != 20*sim.Microsecond {
				t.Errorf("read latency = %v", cfg.Flash.ReadLatency)
			}
			if c.parallel != 2 {
				t.Errorf("parallel = %d", c.parallel)
			}
		}},
		{"fault-flags-enable-model", []string{"-fault-rber", "0.001", "-fault-dead-dies", "3, 7", "-fault-dead-channels", "1"}, func(t *testing.T, c *cliConfig) {
			f := c.cfg.Fault
			if !f.Enabled || f.BaseRBER != 0.001 {
				t.Errorf("fault model not enabled by fault flags: %+v", f)
			}
			if len(f.DeadDies) != 2 || f.DeadDies[0] != 3 || f.DeadDies[1] != 7 || len(f.DeadChannels) != 1 {
				t.Errorf("dead lists = %v / %v", f.DeadDies, f.DeadChannels)
			}
		}},
		{"trace", []string{"-trace", "out.json"}, func(t *testing.T, c *cliConfig) {
			if c.traceOut != "out.json" {
				t.Errorf("traceOut = %q", c.traceOut)
			}
		}},
		{"shards-default-partitioner", []string{"-shards", "4"}, func(t *testing.T, c *cliConfig) {
			if c.shards != 4 || c.partitioner != "hash" {
				t.Errorf("shards/partitioner = %d/%q, want 4/hash", c.shards, c.partitioner)
			}
		}},
		{"shards-locality", []string{"-shards", "2", "-partitioner", " Locality "}, func(t *testing.T, c *cliConfig) {
			if c.shards != 2 || c.partitioner != "locality" {
				t.Errorf("shards/partitioner = %d/%q, want 2/locality", c.shards, c.partitioner)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseCLI(tc.args, io.Discard)
			if err != nil {
				t.Fatalf("parseCLI(%v): %v", tc.args, err)
			}
			tc.check(t, c)
		})
	}
}

func TestParseCLIErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string // substring of the error and of the stderr report
	}{
		{"unknown-flag", []string{"-bogus"}, "-bogus"},
		{"positional-args", []string{"stray"}, "unexpected arguments"},
		{"bad-platform", []string{"-platform", "BG-9"}, "BG-9"},
		{"bad-dataset", []string{"-dataset", "imaginary"}, "imaginary"},
		{"zero-nodes", []string{"-nodes", "0"}, "-nodes"},
		{"negative-nodes", []string{"-nodes", "-5"}, "-nodes"},
		{"zero-batches", []string{"-batches", "0"}, "-batches"},
		{"negative-batch", []string{"-batch", "-1"}, "-batch"},
		{"negative-parallel", []string{"-parallel", "-2"}, "-parallel"},
		{"negative-read-latency", []string{"-read-latency", "-3us"}, "-read-latency"},
		{"negative-channels", []string{"-channels", "-1"}, "-channels"},
		{"negative-rber", []string{"-fault-rber", "-0.1"}, "-fault-rber"},
		{"rber-out-of-range", []string{"-fault-rber", "0.7"}, "out of range"},
		{"nan-rber", []string{"-faults", "-fault-rber", "NaN"}, "-fault-rber"},
		{"nan-storm-rber", []string{"-fault-storm-rber", "NaN", "-fault-storm-end", "1ms"}, "-fault-storm-rber"},
		{"bad-dead-dies", []string{"-fault-dead-dies", "3,x"}, "bad index"},
		{"dead-die-out-of-geometry", []string{"-faults", "-fault-dead-dies", "4096"}, "dead die"},
		{"negative-shards", []string{"-shards", "-1"}, "-shards"},
		{"partitioner-without-shards", []string{"-partitioner", "hash"}, "-partitioner requires -shards"},
		{"bad-partitioner", []string{"-shards", "2", "-partitioner", "roundrobin"}, "roundrobin"},
		{"shards-with-trace", []string{"-shards", "2", "-trace", "out.json"}, "-trace is not supported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			_, err := parseCLI(tc.args, &buf)
			if err == nil {
				t.Fatalf("parseCLI(%v) accepted", tc.args)
			}
			if !strings.Contains(buf.String(), tc.wantMsg) {
				t.Errorf("stderr %q does not mention %q", buf.String(), tc.wantMsg)
			}
		})
	}
}

func TestParseCLIHelp(t *testing.T) {
	var buf strings.Builder
	_, err := parseCLI([]string{"-h"}, &buf)
	if err == nil {
		t.Fatal("-h returned no error")
	}
	if !strings.Contains(buf.String(), "-platform") || !strings.Contains(buf.String(), "-check") {
		t.Errorf("usage output missing flags:\n%s", buf.String())
	}
}

func TestParseInts(t *testing.T) {
	if got, err := parseInts(""); err != nil || got != nil {
		t.Errorf("parseInts(\"\") = %v, %v", got, err)
	}
	got, err := parseInts(" 1, 2 ,3")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("1,,2"); err == nil {
		t.Errorf("empty element accepted")
	}
}
