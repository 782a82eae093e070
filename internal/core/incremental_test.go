package core

import (
	"bytes"
	"testing"

	"beacongnn/internal/platform"
)

// TestSweepIncrementalMatchesFullResim is the referee for incremental
// sweeps: Figure 18 rendered with every cache enabled (result memo,
// instance reuse) must be byte-identical to the same sweep with
// FullResim forcing every simulation from scratch. The
// incremental run must also demonstrably reuse work — otherwise the
// comparison proves nothing.
func TestSweepIncrementalMatchesFullResim(t *testing.T) {
	render := func(fullResim bool) (string, *Options) {
		o := &Options{Quick: true, ScaleNodes: 1500, Batches: 2, FullResim: fullResim}
		var b bytes.Buffer
		if err := RunFig18(o, &b); err != nil {
			t.Fatal(err)
		}
		return b.String(), o
	}

	inc, incOpts := render(false)
	full, _ := render(true)
	if inc == "" {
		t.Fatal("empty fig18 output")
	}
	if inc != full {
		a, b := bytes.Split([]byte(inc), []byte("\n")), bytes.Split([]byte(full), []byte("\n"))
		for i := 0; i < len(a) && i < len(b); i++ {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("incremental sweep diverges from full resim at line %d:\nincremental: %s\nfull resim:  %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("sweep outputs differ in length: %d vs %d bytes", len(inc), len(full))
	}

	// The sweep shares its base point across axes, so the memoized run
	// must have served at least one simulation from cache.
	runs, hits := incOpts.engine().Stats()
	if hits == 0 {
		t.Fatalf("incremental sweep recorded no memo hits (%d runs) — nothing was reused", runs)
	}
}

// TestFullResimDisablesMemo pins the -full-resim contract at the engine
// level: identical back-to-back simulations re-run instead of hitting
// the memo.
func TestFullResimDisablesMemo(t *testing.T) {
	o := &Options{Quick: true, ScaleNodes: 1200, Batches: 2, FullResim: true}
	for i := 0; i < 2; i++ {
		if _, err := o.simulate(platform.BG2, "PPI", simTimeline); err != nil {
			t.Fatal(err)
		}
	}
	runs, hits := o.engine().Stats()
	if hits != 0 || runs != 2 {
		t.Fatalf("FullResim engine stats = %d runs, %d hits; want 2 runs, 0 hits", runs, hits)
	}
}
