package main

import (
	"bytes"
	"fmt"
	"math"

	"beacongnn/internal/platform"
	"beacongnn/internal/serve"
)

// Nominal op rates on the reference box (2 cores, Go 1.24). They map
// --seconds to a fixed op count, so a run lasts about --seconds there
// and two runs of one seed do exactly the same work anywhere.
const (
	coldOpsPerSec  = 18.0
	hotOpsPerSec   = 4000.0
	churnOpsPerSec = 4.0
)

// Rounds per run: each round sets up afresh and times an equal share
// of the ops (see measure).
const (
	coldRounds  = 4
	hotRounds   = 4
	churnRounds = 3
)

// blocksFor converts a run length into whole blocks of the fixed mix,
// a multiple of rounds so that every round runs the same mix.
func blocksFor(seconds int, perSec float64, block, rounds int) int {
	return rounds * max(1, int(math.Round(float64(seconds)*perSec/float64(block*rounds))))
}

// newServer is the daemon as the serve-* workloads run it: one engine
// worker (the single client never has two requests in flight) and
// every other setting at its default, including the 8-instance cache.
func newServer() *serve.Server { return serve.New(serve.Config{Workers: 1}) }

// warmMix materializes the three mix instances (dataset default seed,
// mixNodes nodes) through the daemon, with a 1-batch simulation each
// whose key no timed request shares.
func warmMix(c *client) error {
	for _, d := range mixDatasets {
		op := simOp{Platform: platform.CC.String(), Dataset: d, Nodes: mixNodes, Batches: 1}
		if err := c.post(op.body()).check("miss", respPrefix(op, false)); err != nil {
			return fmt.Errorf("warm %s: %w", op, err)
		}
	}
	return nil
}

// wire holds each op's request body and expected response head, built
// before the timed phase so the client does no encoding while timed.
type wire struct{ bodies, prefixes [][]byte }

func wireFor(ops []simOp, cached bool) wire {
	var w wire
	for _, op := range ops {
		w.bodies = append(w.bodies, op.body())
		w.prefixes = append(w.prefixes, respPrefix(op, cached))
	}
	return w
}

func coldSetup() (*client, error) {
	c := newClient(newServer())
	return c, warmMix(c)
}

// runCold: every request is a distinct config on a warm instance, so
// each one runs the whole event loop; X-Cache must read miss.
func runCold(seed uint64, seconds int) (*report, error) {
	ops, err := coldOps(seed, blocksFor(seconds, coldOpsPerSec, len(combos()), coldRounds))
	if err != nil {
		return nil, err
	}
	w := wireFor(ops, false)
	setupS, t, err := measure(coldRounds, len(ops), coldSetup, func(c *client, i int) error {
		return c.post(w.bodies[i]).check("miss", w.prefixes[i])
	})
	if err != nil {
		return nil, err
	}
	return timedReport(setupS, t), nil
}

// hotState is a daemon with serve-hot's key set resident, and the
// result bytes each key was first served with.
type hotState struct {
	c       *client
	results [][]byte
}

func hotSetup(keys []simOp) func() (*hotState, error) {
	w := wireFor(keys, false)
	return func() (*hotState, error) {
		st := &hotState{c: newClient(newServer())}
		if err := warmMix(st.c); err != nil {
			return nil, err
		}
		for i, k := range keys {
			r := st.c.post(w.bodies[i])
			if err := r.check("miss", w.prefixes[i]); err != nil {
				return nil, fmt.Errorf("make %s resident: %w", k, err)
			}
			st.results = append(st.results, bytes.Clone(resultField(r.body.Bytes())))
		}
		return st, nil
	}
}

// runHot: every request repeats a resident key, so each is a memo hit
// whose result must be byte-identical to the one the key was first
// served with.
func runHot(seed uint64, seconds int) (*report, error) {
	keys, seq, err := hotKeys(seed, blocksFor(seconds, hotOpsPerSec, len(combos()), hotRounds))
	if err != nil {
		return nil, err
	}
	w := wireFor(keys, true)
	setupS, t, err := measure(hotRounds, len(seq), hotSetup(keys), func(st *hotState, i int) error {
		k := seq[i]
		r := st.c.post(w.bodies[k])
		if err := r.check("hit", w.prefixes[k]); err != nil {
			return err
		}
		if !bytes.Equal(resultField(r.body.Bytes()), st.results[k]) {
			return fmt.Errorf("%s: memo hit differs from the result first served", keys[k])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return timedReport(setupS, t), nil
}

func churnSetup(fill []simOp) func() (*client, error) {
	w := wireFor(fill, false)
	return func() (*client, error) {
		c := newClient(newServer())
		for i, op := range fill {
			if err := c.post(w.bodies[i]).check("miss", w.prefixes[i]); err != nil {
				return nil, fmt.Errorf("fill %s: %w", op, err)
			}
		}
		return c, nil
	}
}

// runChurn: every request names an unseen (dataset, seed), so the full
// instance cache misses, materializes a new instance and evicts one.
func runChurn(seed uint64, seconds int) (*report, error) {
	fill, ops := churnOps(seed, blocksFor(seconds, churnOpsPerSec, len(mixDatasets), churnRounds))
	w := wireFor(ops, false)
	setupS, t, err := measure(churnRounds, len(ops), churnSetup(fill), func(c *client, i int) error {
		return c.post(w.bodies[i]).check("miss", w.prefixes[i])
	})
	if err != nil {
		return nil, err
	}
	return timedReport(setupS, t), nil
}
