package core

import (
	"bytes"
	"reflect"
	"testing"

	"beacongnn/internal/config"
)

// optsWithWorkers returns small-scale Options pinned to a worker count.
func optsWithWorkers(workers int) *Options {
	return &Options{Quick: true, ScaleNodes: 2500, Batches: 2, Workers: workers}
}

// TestFig14DeterministicAcrossWorkers is the determinism regression
// test for the parallel engine: RunFig14's rendered output must be
// byte-identical run-to-run and across worker counts (sequential vs 8).
func TestFig14DeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		var b bytes.Buffer
		if err := RunFig14(optsWithWorkers(workers), &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	if seq == "" {
		t.Fatal("empty fig14 output")
	}
	for i := 0; i < 2; i++ {
		if par := render(8); par != seq {
			t.Fatalf("workers=8 output differs from sequential (run %d):\n--- seq ---\n%s\n--- par ---\n%s", i, seq, par)
		}
	}
}

// TestSweepDeterministicAcrossWorkers runs one Figure-18 sweep
// sequentially and with 8 workers; the numeric series must match
// exactly (same values, same order).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	sweep := Fig18Sweeps(true)[2] // controller cores — the cheap axis
	run := func(workers int) map[string][]float64 {
		res, err := RunSweep(optsWithWorkers(workers), sweep)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep series diverge:\nseq: %v\npar: %v", seq, par)
	}
}

// TestInstanceCacheKeyedBySeedAndScale is the regression test for an
// instance-cache bug: the cache used to key only on (name, pageSize),
// so changing the seed or scale between Options values could silently
// return a stale instance.
func TestInstanceCacheKeyedBySeedAndScale(t *testing.T) {
	base := &Options{Quick: true, ScaleNodes: 2000, Batches: 2}
	i1, err := base.instance("PPI")
	if err != nil {
		t.Fatal(err)
	}

	// Different seed, same name/pageSize/scale → must re-materialize.
	seeded := &Options{Quick: true, ScaleNodes: 2000, Batches: 2}
	seeded.Cfg = config.Default()
	seeded.Cfg.Seed = 12345
	i2, err := seeded.instance("PPI")
	if err != nil {
		t.Fatal(err)
	}
	if i1 == i2 {
		t.Fatal("changing Cfg.Seed returned the cached instance of another seed")
	}

	// Different scale → different instance with the right node count.
	scaled := &Options{Quick: true, ScaleNodes: 1500, Batches: 2}
	i3, err := scaled.instance("PPI")
	if err != nil {
		t.Fatal(err)
	}
	if i3.Graph.NumNodes() != 1500 {
		t.Fatalf("scaled instance has %d nodes, want 1500", i3.Graph.NumNodes())
	}
	if i1 == i3 {
		t.Fatal("changing ScaleNodes returned the stale cached instance")
	}

	// Same key → cache hit.
	again, err := base.instance("PPI")
	if err != nil {
		t.Fatal(err)
	}
	if again != i1 {
		t.Fatal("identical (name, nodes, pageSize, seed) did not hit the cache")
	}
}

// TestRunAllDeterministicAcrossWorkers drives the whole experiment
// suite both ways at a reduced scale; the concatenated report must be
// byte-identical. Skipped in -short mode: it is the most expensive
// test in the package.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll comparison is expensive; skipped in -short mode")
	}
	render := func(workers int) string {
		o := &Options{Quick: true, ScaleNodes: 1200, Batches: 2, Workers: workers}
		var b bytes.Buffer
		if err := RunAll(o, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		// Find the first diverging line for a readable failure.
		a, bLines := bytes.Split([]byte(seq), []byte("\n")), bytes.Split([]byte(par), []byte("\n"))
		for i := 0; i < len(a) && i < len(bLines); i++ {
			if !bytes.Equal(a[i], bLines[i]) {
				t.Fatalf("RunAll diverges at line %d:\nseq: %s\npar: %s", i+1, a[i], bLines[i])
			}
		}
		t.Fatalf("RunAll outputs differ in length: %d vs %d bytes", len(seq), len(par))
	}
}
