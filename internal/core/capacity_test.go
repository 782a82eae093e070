package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestCapacityDeterministicAcrossWorkers is the acceptance bar for the
// capacity sweep: the same seed renders a byte-identical report at any
// host parallelism, because every grid point replays its schedule in
// virtual time on a fixed virtual width and the fan-out preserves
// order.
func TestCapacityDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		var b bytes.Buffer
		if err := RunCapacity(optsWithWorkers(workers), &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	if seq == "" {
		t.Fatal("empty capacity output")
	}
	if par := render(8); par != seq {
		t.Fatalf("workers=8 output differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	for _, want := range []string{
		"open-loop capacity curves",
		"BG-2 / poisson",
		"BG-2 / mmpp",
		"beaconserved / poisson",
		"beaconserved / mmpp",
		"knee:",
		"loadgen.backend spans",
		"expect:",
	} {
		if !strings.Contains(seq, want) {
			t.Errorf("capacity report missing %q:\n%s", want, seq)
		}
	}
}

// TestCapacityJSONShape: the machine-readable report round-trips and
// carries the capacity_curves section with one curve per
// (platform, arrival) and a knee on every curve.
func TestCapacityJSONShape(t *testing.T) {
	rep, cells, err := BuildCapacityReport(optsWithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Curves) != 4 || len(cells) != 4 {
		t.Fatalf("curves/cells = %d/%d, want 4/4", len(rep.Curves), len(cells))
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if _, ok := decoded["capacity_curves"]; !ok {
		t.Fatalf("JSON missing capacity_curves section: %s", buf.String())
	}
	for _, c := range rep.Curves {
		if len(c.Steps) == 0 {
			t.Fatalf("curve %s/%s has no steps", c.Platform, c.Arrival)
		}
		if c.KneeIndex >= 0 && c.KneeQPS != c.Steps[c.KneeIndex].OfferedQPS {
			t.Fatalf("curve %s/%s knee qps %v does not match step %d", c.Platform, c.Arrival, c.KneeQPS, c.KneeIndex)
		}
	}
}

// TestCapacityCheckInvariants runs the sweep under -check: outcome
// partition, monotone offered load, and the goodput ceiling are
// asserted inside RunCapacity itself.
func TestCapacityCheckInvariants(t *testing.T) {
	o := optsWithWorkers(4)
	o.Check = true
	var b bytes.Buffer
	if err := RunCapacity(o, &b); err != nil {
		t.Fatal(err)
	}
}
