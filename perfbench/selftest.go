package main

import (
	"fmt"
	"slices"
)

// selfTest checks the generators' contract for seed before any run:
// the same seed gives the identical request sequence, another seed gives
// different keys over the same platform/dataset mix, and serve-cold and
// serve-churn never repeat a key within a run.
func selfTest(seed uint64) error {
	const blocks = 4
	gen := func(s uint64) ([]simOp, []simOp, []simOp, error) {
		cold, err := coldOps(s, blocks)
		if err != nil {
			return nil, nil, nil, err
		}
		keys, seq, err := hotKeys(s, blocks)
		if err != nil {
			return nil, nil, nil, err
		}
		hot := make([]simOp, len(seq))
		for i, k := range seq {
			hot[i] = keys[k]
		}
		fill, churn := churnOps(s, blocks)
		return cold, hot, append(fill, churn...), nil
	}
	c1, h1, ch1, err := gen(seed)
	if err != nil {
		return err
	}
	c2, h2, ch2, err := gen(seed)
	if err != nil {
		return err
	}
	if !slices.Equal(c1, c2) || !slices.Equal(h1, h2) || !slices.Equal(ch1, ch2) {
		return fmt.Errorf("seed %d does not reproduce its request sequence", seed)
	}
	c3, h3, ch3, err := gen(seed + 1)
	if err != nil {
		return err
	}
	for _, w := range []struct {
		name string
		a, b []simOp
	}{{"serve-cold", c1, c3}, {"serve-hot", h1, h3}, {"serve-churn", ch1, ch3}} {
		if slices.Equal(w.a, w.b) {
			return fmt.Errorf("%s: seeds %d and %d generate the same keys", w.name, seed, seed+1)
		}
		if !slices.Equal(mixOf(w.a), mixOf(w.b)) {
			return fmt.Errorf("%s: seeds %d and %d generate different platform/dataset mixes", w.name, seed, seed+1)
		}
	}
	for _, w := range []struct {
		name string
		ops  []simOp
	}{{"serve-cold", c1}, {"serve-churn", ch1}} {
		seen := make(map[simOp]bool)
		for _, op := range w.ops {
			if seen[op] {
				return fmt.Errorf("%s repeats key %s", w.name, op)
			}
			seen[op] = true
		}
	}
	return nil
}

// mixOf counts ops per platform/dataset pair, as a sorted list.
func mixOf(ops []simOp) []string {
	n := make(map[string]int)
	for _, op := range ops {
		n[op.Platform+"/"+op.Dataset]++
	}
	var out []string
	for k, v := range n {
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	slices.Sort(out)
	return out
}
