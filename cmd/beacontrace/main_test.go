package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayUsesTraceDataset replays a reddit trace with no -dataset
// flag: it must simulate reddit, reading exactly what a replay with
// -dataset reddit reads, and a -dataset that disagrees with the trace
// is an error.
func TestReplayUsesTraceDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reddit.json")
	if code := run([]string{"-gen", "-dataset", "reddit", "-nodes", "1000", "-batches", "2", "-batch", "16", "-out", path}, new(bytes.Buffer)); code != 0 {
		t.Fatalf("-gen exited %d", code)
	}
	replay := func(extra ...string) (string, int) {
		var out bytes.Buffer
		code := run(append([]string{"-replay", "-in", path, "-platform", "BG-2"}, extra...), &out)
		return out.String(), code
	}
	bare, code := replay()
	if code != 0 || !strings.Contains(bare, "replayed 2 batches of reddit") {
		t.Fatalf("replay without -dataset: exit %d, %q", code, bare)
	}
	if named, code := replay("-dataset", "reddit"); code != 0 || named != bare {
		t.Fatalf("replay with -dataset reddit: exit %d, %q; without: %q", code, named, bare)
	}
	if out, code := replay("-dataset", "amazon"); code != 1 || out != "" {
		t.Fatalf("replay with a disagreeing -dataset: exit %d, %q; want 1 and no output", code, out)
	}
}

// TestUsageExitCodes: no command and a bad flag are usage errors, -h is
// not, and a missing or unreadable trace is a failure.
func TestUsageExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"-bogus"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"-replay"}, 1},
		{[]string{"-inspect", "-in", filepath.Join(t.TempDir(), "absent.json")}, 1},
	} {
		if got := run(tc.args, new(bytes.Buffer)); got != tc.want {
			t.Errorf("%q: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}
