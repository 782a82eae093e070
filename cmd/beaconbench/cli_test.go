package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseCLIValid(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		check func(t *testing.T, c *cliConfig)
	}{
		{"defaults", nil, func(t *testing.T, c *cliConfig) {
			if c.exp != "all" || c.list || c.jsonOut || c.traceOut != "" {
				t.Errorf("defaults wrong: %+v", c)
			}
			if c.opts.Quick || c.opts.Check || c.opts.Workers != 0 {
				t.Errorf("default options wrong: %+v", c.opts)
			}
		}},
		{"one-experiment", []string{"-exp", "fig14", "-quick"}, func(t *testing.T, c *cliConfig) {
			if c.exp != "fig14" || !c.opts.Quick {
				t.Errorf("got %q quick=%v", c.exp, c.opts.Quick)
			}
		}},
		{"check-and-parallel", []string{"-check", "-parallel", "8"}, func(t *testing.T, c *cliConfig) {
			if !c.opts.Check || c.opts.Workers != 8 {
				t.Errorf("options = %+v", c.opts)
			}
		}},
		{"scale-overrides", []string{"-nodes", "2000", "-batches", "4"}, func(t *testing.T, c *cliConfig) {
			if c.opts.ScaleNodes != 2000 || c.opts.Batches != 4 {
				t.Errorf("options = %+v", c.opts)
			}
		}},
		{"list-skips-exp-validation", []string{"-list", "-exp", "nonsense"}, func(t *testing.T, c *cliConfig) {
			if !c.list {
				t.Errorf("-list not parsed")
			}
		}},
		{"trace", []string{"-trace", "t.json", "-trace-platform", "BG-1", "-trace-dataset", "reddit"}, func(t *testing.T, c *cliConfig) {
			if c.traceOut != "t.json" || c.tracePlt != "BG-1" || c.traceDS != "reddit" {
				t.Errorf("trace fields = %q %q %q", c.traceOut, c.tracePlt, c.traceDS)
			}
		}},
		{"drive-capacity", []string{"-drive", "http://x:1", "-drive-capacity", "-drive-qps", "25",
			"-drive-arrival", "mmpp", "-drive-seed", "9"}, func(t *testing.T, c *cliConfig) {
			if !c.driveCap || c.driveQPS != 25 || c.driveArr != "mmpp" || c.driveSd != 9 {
				t.Errorf("capacity drive fields = %+v", c)
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
		wantMsg string
	}{
		{"unknown-flag", []string{"-bogus"}, "-bogus"},
		{"positional-args", []string{"stray"}, "unexpected arguments"},
		{"unknown-experiment", []string{"-exp", "fig99"}, "fig99"},
		{"negative-nodes", []string{"-nodes", "-1"}, "-nodes"},
		{"negative-batches", []string{"-batches", "-1"}, "-batches"},
		{"negative-parallel", []string{"-parallel", "-4"}, "-parallel"},
		{"bad-trace-platform", []string{"-trace", "t.json", "-trace-platform", "BG-9"}, "BG-9"},
		{"capacity-without-drive", []string{"-drive-capacity"}, "-drive"},
		{"capacity-bad-qps", []string{"-drive", "http://x:1", "-drive-capacity", "-drive-qps", "0"}, "-drive-qps"},
		{"capacity-bad-arrival", []string{"-drive", "http://x:1", "-drive-capacity", "-drive-arrival", "weibull"}, "weibull"},
		{"json-chaos", []string{"-json", "-exp", "chaos"}, "sched, capacity or cluster"},
		{"json-reliab", []string{"-json", "-exp", "reliab"}, "-exp reliab has no JSON report"},
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
	if !strings.Contains(buf.String(), "-exp") || !strings.Contains(buf.String(), "-check") {
		t.Errorf("usage output missing flags:\n%s", buf.String())
	}
}
