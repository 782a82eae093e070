package chaos

import (
	"fmt"
	"time"

	"beacongnn/internal/exp"
)

// Attach installs the injector as eng's fault hook, wiring the engine
// boundary: per-leaf transient failures, worker stalls (the sleep
// holds the leaf's worker slot, exactly like a run that went slow),
// and memo eviction storms. Passing a nil injector (or one whose
// config is disabled) installs nothing, keeping the hot path at its
// uninstrumented cost.
func (in *Injector) Attach(eng *exp.Engine) {
	if in == nil || !in.cfg.Active() {
		return
	}
	eng.SetFaultHook(func(key exp.SimKey, attempt int) error {
		return in.engineFault(eng, key.Digest, attempt)
	})
}

// engineFault draws the engine-boundary decisions for one leaf attempt.
// The grace counter runs on attempt 0 only, so hedges and retries of an
// early request do not burn the priming window.
func (in *Injector) engineFault(eng *exp.Engine, digest uint64, attempt int) error {
	if in.disarmed.Load() {
		return nil
	}
	if attempt == 0 && in.runs.Add(1) <= in.cfg.EngineFailAfter {
		return nil
	}
	key := digest ^ uint64(attempt)*0x9e3779b97f4a7c15
	if in.cfg.EvictRate > 0 && in.draw(siteEngineEvict, key) < in.cfg.EvictRate {
		in.stats.Evictions.Add(uint64(eng.EvictOldest(in.cfg.EvictBurst)))
	}
	if in.cfg.EngineStallRate > 0 && in.draw(siteEngineStall, key) < in.cfg.EngineStallRate {
		in.stats.EngineStalls.Add(1)
		time.Sleep(in.cfg.EngineStall)
	}
	if in.cfg.EngineFailRate > 0 && in.draw(siteEngineFail, key) < in.cfg.EngineFailRate {
		in.stats.EngineFails.Add(1)
		return fmt.Errorf("chaos: injected engine fault (attempt %d): %w", attempt, exp.ErrTransient)
	}
	return nil
}
