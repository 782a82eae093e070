package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"

	"beacongnn/internal/core"
	"beacongnn/internal/exp"
)

// evalPassSecs is the nominal wall time of one eval pass on the
// reference box; it maps --seconds to a pass count.
const evalPassSecs = 4.0

func evalPasses(seconds int) int {
	return max(2, int(math.Round(float64(seconds)/evalPassSecs)))
}

// header is core.RunAll's section header.
func header(e core.Experiment) string {
	return fmt.Sprintf("\n===== %s — %s =====\n", e.ID, e.Title)
}

// quickOptions is a quick evaluation on eng.
func quickOptions(eng *exp.Engine) *core.Options {
	return &core.Options{Quick: true, Engine: eng}
}

// runAllRef is eval's set-up: core.RunAll's quick paper evaluation,
// whose output every pass must start with. It also fills core's
// process-wide instance cache, the steady state every pass then reuses.
func runAllRef() ([]byte, error) {
	var b bytes.Buffer
	err := core.RunAll(&core.Options{Quick: true, Workers: runtime.NumCPU()}, &b)
	return b.Bytes(), err
}

// fanOutPass is one eval op: every experiment in core.AllExperiments()
// fanned out the way core.RunAll fans out the paper set, on one fresh
// engine of nproc workers, joined in order under RunAll's headers.
func fanOutPass() ([]byte, error) {
	o := quickOptions(exp.New(runtime.NumCPU()))
	bufs, err := exp.Map(core.AllExperiments(), func(e core.Experiment) (*bytes.Buffer, error) {
		var b bytes.Buffer
		b.WriteString(header(e))
		if err := e.Run(o, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		return &b, nil
	})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	for _, b := range bufs {
		out.Write(b.Bytes())
	}
	return out.Bytes(), nil
}

// checkPaperSections reports whether a pass's 13 paper sections equal
// core.RunAll's output.
func checkPaperSections(pass, ref []byte) error {
	if !bytes.HasPrefix(pass, ref) {
		return fmt.Errorf("the pass's paper sections differ from core.RunAll's output")
	}
	return nil
}

// runEval times whole passes after one set-up. Only the first RunAll of
// a process fills core's instance cache, so the set-up cannot be
// repeated from scratch in-process: setup_s is that one cold RunAll.
// Each pass builds a fresh engine, which is what a round does for the
// serve-* workloads. Every pass must be byte-identical to the first,
// and its paper sections must equal the RunAll output. The seed is
// unused: the quick evaluation is the input.
func runEval(_ uint64, seconds int) (*report, error) {
	n := evalPasses(seconds)
	var first []byte
	setupS, t, err := measure(1, n, runAllRef, func(ref []byte, i int) error {
		out, err := fanOutPass()
		if err != nil {
			return err
		}
		if i == 0 {
			first = out
		} else if !bytes.Equal(out, first) {
			return fmt.Errorf("pass %d differs from pass 0", i)
		}
		return checkPaperSections(out, ref)
	})
	if err != nil {
		return nil, err
	}
	return timedReport(setupS, t), nil
}
