package platform

import (
	"reflect"
	"sync"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/pool"
)

// TestPooledStateIsolationUnderConcurrency hammers the pooled
// request/batch state machines: many simulations run concurrently, each
// drawing senseCtx/pageOp/dieOp/batchState objects from its own free
// lists, which it takes off the process-wide shelves and hands back when
// it returns. The pooled round runs twice, so the second round runs on
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
	// paths (BG-SP/BG-2) churn dieOp/execOp/rtrOp, sampler Results and
	// router cmdOps, the page paths (BG-1/BG-DG) churn
	// pageOp/rapOp/hostOp, and all share senseCtx and batchState.
	kinds := []Kind{BG1, BGDG, BGSP, BGDGSP, BG2, BG2, BGSP, BG1}

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
