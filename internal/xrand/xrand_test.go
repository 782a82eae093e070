package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformity(t *testing.T) {
	// Chi-squared test over 16 buckets; loose bound to stay flake-free.
	r := New(99)
	const buckets, n = 16, 160000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 dof; p=0.001 critical value ≈ 37.7. Use 60 for slack.
	if chi2 > 60 {
		t.Fatalf("chi-squared = %v, distribution badly non-uniform", chi2)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(5)
	child := parent.Fork()
	// The child's stream must not equal the parent's subsequent stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("fork overlapped parent stream %d times", same)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ≈0.5", mean)
	}
}

func TestZipfBoundsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, sRaw uint8) bool {
		n := int(nRaw%500) + 1
		s := 0.5 + float64(sRaw%30)/10 // 0.5 .. 3.4
		r := New(seed)
		for i := 0; i < 30; i++ {
			v := r.Zipf(n, s)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkewsLow(t *testing.T) {
	r := New(4)
	const n, draws = 1000, 50000
	lowDecile := 0
	for i := 0; i < draws; i++ {
		if r.Zipf(n, 1.2) < n/10 {
			lowDecile++
		}
	}
	// With skew 1.2, far more than 10% of draws hit the first decile.
	if frac := float64(lowDecile) / draws; frac < 0.5 {
		t.Fatalf("first decile got %.2f of draws, want heavy skew", frac)
	}
}

func TestZipfPanicsAndEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Zipf(0, ...) did not panic")
		}
	}()
	r := New(1)
	if r.Zipf(1, 2.0) != 0 {
		t.Error("Zipf(1) must be 0")
	}
	r.Zipf(0, 2.0)
}

func TestJumpMatchesStepping(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeefcafe} {
		for _, n := range []uint64{0, 1, 2, 63, 64, 255, 256, 257, 65535, 1_000_003} {
			want := New(seed)
			for i := uint64(0); i < n; i++ {
				want.Uint64()
			}
			got := New(seed)
			got.Jump(n)
			if got.s != want.s {
				t.Fatalf("seed %d: Jump(%d) state %x, stepping %x", seed, n, got.s, want.s)
			}
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d: after Jump(%d) drew %x, stepping drew %x", seed, n, a, b)
			}
		}
	}
}

// TestJumpComposes checks Jump(a) then Jump(b) against Jump(a+b) at
// distances too long to step, including the top bit of n.
func TestJumpComposes(t *testing.T) {
	for _, c := range [][2]uint64{{1 << 40, 3}, {1<<63 + 5, 1<<62 - 7}, {12345678901, 98765432109}} {
		a, b := New(9), New(9)
		a.Jump(c[0])
		a.Jump(c[1])
		b.Jump(c[0] + c[1])
		if a.s != b.s {
			t.Fatalf("Jump(%d)+Jump(%d) != Jump(%d)", c[0], c[1], c[0]+c[1])
		}
	}
}

// TestCharPolyDerived re-derives charPoly from the generator itself:
// Berlekamp–Massey over 512 bits of a state bit's sequence finds the
// minimal recurrence of that sequence. It has degree 256 because the
// transition's characteristic polynomial is primitive, so the two
// polynomials coincide.
func TestCharPolyDerived(t *testing.T) {
	r := New(7)
	seq := make([]byte, 512)
	for i := range seq {
		seq[i] = byte(r.s[0] & 1)
		r.Uint64()
	}
	c, l := berlekampMassey(seq)
	if l != 256 {
		t.Fatalf("linear complexity %d, want 256", l)
	}
	// p(x) = x^L + Σ c_i x^(L−i): the coefficient of x^k is c[L−k].
	var p [4]uint64
	for k := 0; k < l; k++ {
		p[k/64] |= uint64(c[l-k]) << (k % 64)
	}
	if p != charPoly {
		t.Fatalf("derived polynomial %#x, hard-coded %#x", p, charPoly)
	}
}

// berlekampMassey returns the connection polynomial c (c[0] = 1) of
// the shortest LFSR over GF(2) that generates seq, and its length.
func berlekampMassey(seq []byte) ([]byte, int) {
	n := len(seq)
	c, b := make([]byte, n+1), make([]byte, n+1)
	c[0], b[0] = 1, 1
	l, m := 0, 1
	for i := range seq {
		d := seq[i]
		for j := 1; j <= l; j++ {
			d ^= c[j] & seq[i-j]
		}
		if d == 0 {
			m++
			continue
		}
		prev := append([]byte(nil), c...)
		for j := 0; j+m <= n; j++ {
			c[j+m] ^= b[j]
		}
		if 2*l <= i {
			l, b, m = i+1-l, prev, 1
		} else {
			m++
		}
	}
	return c[:l+1], l
}

func FuzzJump(f *testing.F) {
	f.Add(uint64(1), uint16(0))
	f.Add(uint64(42), uint16(300))
	f.Add(uint64(0), uint16(65535))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		want := New(seed)
		for i := 0; i < int(n); i++ {
			want.Uint64()
		}
		got := New(seed)
		got.Jump(uint64(n))
		if got.s != want.s {
			t.Fatalf("seed %d: Jump(%d) diverged from stepping", seed, n)
		}
	})
}

func BenchmarkJump(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Jump(1<<40 + uint64(i))
	}
}

// TestSplitMix64Reference pins SplitMix64 to the reference stream from
// state 0, and Seed to the first four outputs of the stream at seed.
func TestSplitMix64Reference(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}
	var x uint64
	for i, w := range want {
		if got := SplitMix64(x); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
		x += 0x9e3779b97f4a7c15
	}
	var r Source
	r.Seed(0)
	if r.s != [4]uint64(want) {
		t.Fatalf("Seed(0) state = %#x, want %#x", r.s, want)
	}
}
