package sim

import (
	"sort"
	"testing"
)

// FuzzKernelOrder drives the kernel with a byte-coded program of At,
// After, Server and RunUntil calls and asserts that events dispatch in
// exactly (time, scheduling-sequence) order. Delays mix a few repeated
// values (the common case of fixed device timings), a stream of unique
// ones and the wheel's edges (one short of, at and one past its
// horizon), so both the wheel and the overflow heap are exercised,
// alone and interleaved; RunUntil windows up to many horizons long move
// the clock across the wheel's wrap.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x0f, 5, 0x80, 0x81, 0x1f, 200, 0x2f, 3})
	f.Add([]byte{0, 0, 0, 0, 8, 8, 8, 8, 16, 16, 255})
	f.Add([]byte("\x01\x11\x21\x31\x41\x51\x61\x71\x81\x91\xa1\xb1\xc1\xd1\xe1\xf1\x03\x13"))
	f.Add([]byte("repeated delays, unique delays and RunUntil windows"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkKernelOrder(t, prog)
	})
}

// fuzzRepeated is the small set of recurring delays the program draws
// from, including zero (same-time events) and duplicates of each other's
// sums so events collide in time.
var fuzzRepeated = [...]Time{0, 1, 3, 7, 7000, 25_000, 50_000, 3}

type fuzzEvent struct {
	at  Time
	seq uint64
}

func checkKernelOrder(t *testing.T, prog []byte) {
	k := New()
	srv := NewServer(k, 1<<20) // wide enough that every Submit begins at once
	var sched []fuzzEvent      // by index: when and in which order it was queued
	var fired []int            // indexes in dispatch order
	unique := Time(0)
	budget := 4 * len(prog) // bounds callback-spawned events

	var schedule func(op byte)
	fire := func(i int, respawn byte) func() {
		return func() {
			if k.Now() != sched[i].at {
				t.Fatalf("event %d ran at %v, scheduled for %v", i, k.Now(), sched[i].at)
			}
			fired = append(fired, i)
			if respawn&0x80 != 0 && budget > 0 {
				budget--
				schedule(respawn &^ 0x80)
			}
		}
	}
	schedule = func(op byte) {
		i := len(sched)
		sched = append(sched, fuzzEvent{})
		var d Time
		switch op >> 6 {
		case 0, 1:
			d = fuzzRepeated[op&7]
		case 2:
			unique += 97
			d = unique
		default:
			d = Time(op & 63)
			if d >= 61 {
				d += wheelSize - 62 // wheelSize−1, wheelSize, wheelSize+1
			}
		}
		respawn := op*31 + 17
		switch op % 3 {
		case 0:
			k.After(d, fire(i, respawn))
		case 1:
			k.At(k.Now()+d, fire(i, respawn))
		default:
			srv.Submit(d, fire(i, respawn))
		}
		sched[i] = fuzzEvent{at: k.Now() + d, seq: k.seq}
	}

	for p := 0; p < len(prog); p++ {
		op := prog[p]
		if op&0x0f == 0x0f && p+1 < len(prog) {
			// RunUntil window: nothing past the limit may run, and the
			// clock lands exactly on the limit.
			p++
			limit := k.Now() + Time(prog[p])<<(op>>4)
			before := len(fired)
			drained := k.RunUntil(limit)
			for _, i := range fired[before:] {
				if sched[i].at > limit {
					t.Fatalf("RunUntil(%v) ran event %d at %v", limit, i, sched[i].at)
				}
			}
			if k.Now() != limit {
				t.Fatalf("RunUntil(%v) left the clock at %v", limit, k.Now())
			}
			if drained != (k.Pending() == 0) {
				t.Fatalf("RunUntil drained=%v with %d pending", drained, k.Pending())
			}
			continue
		}
		schedule(op)
	}
	k.Run()

	if k.Pending() != 0 || len(fired) != len(sched) {
		t.Fatalf("ran %d of %d events, %d still pending", len(fired), len(sched), k.Pending())
	}
	if k.Steps() != uint64(len(sched)) {
		t.Fatalf("Steps = %d, want %d", k.Steps(), len(sched))
	}
	want := make([]int, len(sched))
	for i := range want {
		want[i] = i
	}
	sort.Slice(want, func(a, b int) bool {
		ea, eb := sched[want[a]], sched[want[b]]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		return ea.seq < eb.seq
	})
	for n := range want {
		if fired[n] != want[n] {
			t.Fatalf("dispatch %d ran event %d (%+v), want event %d (%+v)",
				n, fired[n], sched[fired[n]], want[n], sched[want[n]])
		}
	}
}

// TestKernelOrderLongProgram runs one long fixed program through the
// fuzz oracle on every `go test`, with enough unique and horizon-edge
// delays to spill into the overflow heap and windows long enough to
// wrap the wheel.
func TestKernelOrderLongProgram(t *testing.T) {
	prog := make([]byte, 4000)
	for i := range prog {
		prog[i] = byte(i*131 + i/7)
	}
	checkKernelOrder(t, prog)
}
