package graph

import (
	"flag"
	"math"
	"testing"

	"beacongnn/internal/xrand"
)

var fp16Exhaustive = flag.Bool("fp16-exhaustive", false,
	"compare Float32ToFp16 with the general conversion on all 2^32 inputs (~1 min)")

// TestFloat32ToFp16FastPath checks the normal-range fast path against
// the general conversion on every sign × exponent × top-10-mantissa-bit
// pattern, with the 13 rounded-off bits at each rounding boundary (zero,
// just above zero, just below and at the halfway point, just above it,
// all ones), plus a seeded random sample of raw bit patterns.
func TestFloat32ToFp16FastPath(t *testing.T) {
	check := func(bits uint32) bool {
		got := Float32ToFp16(math.Float32frombits(bits))
		want := float32ToFp16Slow(bits)
		if got != want {
			t.Errorf("Float32ToFp16(%#08x) = %#04x, general conversion %#04x", bits, got, want)
			return false
		}
		return true
	}
	lows := []uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x1fff}
	for hi := uint32(0); hi < 1<<19; hi++ { // sign, exponent, top 10 mantissa bits
		for _, lo := range lows {
			if !check(hi<<13 | lo) {
				return
			}
		}
	}
	rng := xrand.New(16)
	for i := 0; i < 1<<20; i++ {
		if !check(uint32(rng.Uint64())) {
			return
		}
	}
}

// TestFloat32ToFp16Exhaustive compares the two conversions on every
// float32 bit pattern. It is off by default; run it with
//
//	go test ./internal/graph -run Fp16Exhaustive -fp16-exhaustive
func TestFloat32ToFp16Exhaustive(t *testing.T) {
	if !*fp16Exhaustive {
		t.Skip("enable with -fp16-exhaustive")
	}
	for bits := uint64(0); bits < 1<<32; bits++ {
		if got, want := Float32ToFp16(math.Float32frombits(uint32(bits))), float32ToFp16Slow(uint32(bits)); got != want {
			t.Fatalf("Float32ToFp16(%#08x) = %#04x, general conversion %#04x", bits, got, want)
		}
	}
}
