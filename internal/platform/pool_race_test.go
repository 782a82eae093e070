package platform

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/pool"
)

// TestPooledStateIsolationUnderConcurrency hammers the pooled
// request/batch state machines: many simulations run concurrently, each
// drawing senseCtx/readOp/readPageOp/execOp/dieOp/batchState objects from its
// own free lists, which it takes off the process-wide shelves and hands
// back when it returns. The pooled round runs twice, so the second round runs on
// lists the first one handed back — often from another goroutine — and
// every measurement of both rounds must match a run with pooling
// disabled (every Get a fresh allocation). A reset-discipline bug — a
// reference field surviving Put, an object migrating between kernels
// with stale state — shows up as a diverging Result; under -race the
// same test catches unsynchronized reuse directly.
func TestPooledStateIsolationUnderConcurrency(t *testing.T) {
	d, err := dataset.ByName("amazon")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.Materialize(d, 2500, config.Default().Flash.PageSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.GNN.BatchSize = 24
	// Both pool-heavy regimes, repeated so simulations overlap: the die
	// paths churn execOp, sampler Results and (BG-SP) dieOp or (BG-2)
	// router cmdOps, the page paths churn readOp/readPageOp — CC and
	// GList host-controlled, SmartSage with its to-host continuation,
	// BG-1 firmware-driven, BG-DG with secondary reads — and all share
	// senseCtx and batchState.
	kinds := []Kind{CC, SmartSage, GList, BG1, BGDG, BGSP, BGDGSP, BG2, BG2, BGDG, BGSP, CC}

	run := func() []*Result {
		out := make([]*Result, len(kinds))
		var wg sync.WaitGroup
		wg.Add(len(kinds))
		for i, k := range kinds {
			go func(i int, k Kind) {
				defer wg.Done()
				r, err := Simulate(k, cfg, inst, 2, 128)
				if err != nil {
					t.Errorf("%v: %v", k, err)
					return
				}
				out[i] = r
			}(i, k)
		}
		wg.Wait()
		return out
	}

	pooled := [][]*Result{run(), run()}
	if t.Failed() {
		t.FailNow()
	}
	pool.Disable(true)
	defer pool.Disable(false)
	fresh := run()
	for round, rs := range pooled {
		for i := range kinds {
			if !reflect.DeepEqual(rs[i], fresh[i]) {
				t.Errorf("round %d, %v (slot %d): pooled result differs from fresh-alloc result — pooled state leaked", round+1, kinds[i], i)
			}
		}
	}
}

// TestPooledServerIsolationUnderConcurrency runs simulations of three
// geometries at once, so kernels hand server sets, TRNG slabs and
// router FIFOs to each other across goroutines, and between server
// counts and widths. Two pooled rounds must each match a round with
// pooling disabled (every set fresh), field for field. A simulation
// cancelled with events pending runs first: its servers must stay out
// of the recycled sets, so after both rounds they still hold the
// requests it left queued.
func TestPooledServerIsolationUnderConcurrency(t *testing.T) {
	d, err := dataset.ByName("amazon")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.Materialize(d, 2500, config.Default().Flash.PageSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	base := config.Default()
	base.GNN.BatchSize = 24
	narrow := base
	narrow.Flash.Channels, narrow.Flash.PlanesPerDie = 4, 1
	wide := base
	wide.Flash.DiesPerChannel, wide.Firmware.Cores, wide.Host.Cores = 12, 2, 6
	type job struct {
		kind Kind
		cfg  config.Config
	}
	jobs := []job{
		{CC, base}, {BGSP, narrow}, {BG2, wide}, {BGDG, base},
		{BG2, narrow}, {BGSP, wide}, {BG2, base}, {BG1, narrow},
	}

	stopped, err := NewSystem(BG2, wide, inst, 128)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stopped.BindContext(ctx)
	if _, err := stopped.Run(2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	type occupancy struct{ pending, hostBusy, hostQueued, flashBusy, flashQueued int }
	occupied := func() occupancy {
		o := occupancy{pending: stopped.k.Pending(), hostBusy: stopped.host.Busy(), hostQueued: stopped.host.QueueLen()}
		o.flashBusy, o.flashQueued = stopped.backend.Occupancy()
		return o
	}
	left := occupied()
	if left.pending == 0 || left.hostBusy == 0 || left.hostQueued == 0 {
		t.Fatalf("cancelled run left %+v; the test needs queued host work", left)
	}

	run := func() []*Result {
		out := make([]*Result, len(jobs))
		var wg sync.WaitGroup
		wg.Add(len(jobs))
		for i, j := range jobs {
			go func(i int, j job) {
				defer wg.Done()
				r, err := Simulate(j.kind, j.cfg, inst, 2, 128)
				if err != nil {
					t.Errorf("%v: %v", j.kind, err)
					return
				}
				out[i] = r
			}(i, j)
		}
		wg.Wait()
		return out
	}
	pooled := [][]*Result{run(), run()}
	if t.Failed() {
		t.FailNow()
	}
	if now := occupied(); now != left {
		t.Fatalf("cancelled run's servers changed from %+v to %+v: its set was recycled", left, now)
	}
	pool.Disable(true)
	defer pool.Disable(false)
	fresh := run()
	for round, rs := range pooled {
		for i, j := range jobs {
			if !reflect.DeepEqual(rs[i], fresh[i]) {
				t.Errorf("round %d, %v (slot %d): pooled result differs from fresh-alloc result — recycled storage leaked", round+1, j.kind, i)
			}
		}
	}
}
