package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSchedDeterministicAcrossWorkers: the scheduler-comparison sweep
// fans (platform, policy) cells over the worker pool; its rendered
// output must be byte-identical for any worker count.
func TestSchedDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		var b bytes.Buffer
		if err := RunSched(optsWithWorkers(workers), &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	if seq == "" {
		t.Fatal("empty sched output")
	}
	if par := render(8); par != seq {
		t.Fatalf("workers=8 output differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	for _, want := range []string{"fifo", "sjf", "edf", "totalfit"} {
		if !strings.Contains(seq, want) {
			t.Fatalf("sched output missing policy %q:\n%s", want, seq)
		}
	}
}

// TestSchedReportJSON: the machine-readable report covers the full
// (platform, policy) grid with live numbers.
func TestSchedReportJSON(t *testing.T) {
	rep, err := BuildSchedReport(optsWithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	kinds, policies := len(schedKinds()), len(schedPolicies())
	if len(rep.Cells) != kinds*policies {
		t.Fatalf("cells = %d, want %d platforms x %d policies", len(rep.Cells), kinds, policies)
	}
	seen := map[string]bool{}
	for _, c := range rep.Cells {
		seen[c.Policy] = true
		if c.Throughput <= 0 || c.CmdLifetime <= 0 || c.Commands == 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
	}
	for _, p := range schedPolicies() {
		if !seen[p] {
			t.Fatalf("policy %q missing from report", p)
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var round SchedReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(round.Cells) != len(rep.Cells) {
		t.Fatalf("round-trip lost cells: %d vs %d", len(round.Cells), len(rep.Cells))
	}
}
