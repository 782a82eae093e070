package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalization. The host this benchmark was built on
// changes speed over minutes: a fixed SHA-256 loop took 0.205 to 0.381 s
// across twelve samples two seconds apart, on an otherwise idle 2-core
// container, with CPU time moving as much as wall time. Runs a
// few minutes apart then differ by that much whatever the program does.
// So every timed end-to-end value is reported at the reference speed:
// it is multiplied by refKernel / k, where k is the median time of a
// fixed reference kernel sampled between the ops of the same round. The
// kernel is the benchmark's own code and never changes with the
// program, so a faster program still reads faster.

// refKernel is the reference kernel's median time on the reference box
// (2-core x86-64 container, Go 1.24) when it runs at its usual speed.
const refKernel = 28 * time.Millisecond

// sampleEvery is the op time between two kernel samples in a round.
const sampleEvery = 250 * time.Millisecond

// speedKernel is a fixed, allocation-free workload dominated by memory
// latency: a dependent walk through a 64 MiB random cycle, then an
// integer mixing loop and a sort of 32k keys. On the reference box the
// program's op times tracked a memory-bound kernel (correlation 0.8 to
// 0.9 over fourteen serve-cold runs) much better than a compute-bound
// one, which moved three times less than the program did.
type speedKernel struct {
	next    []uint32
	keys    []uint64
	scratch []uint64
	sink    uint64
}

// newSpeedKernel builds the kernel. Its 64 MiB cycle lives in an
// anonymous mapping outside the Go heap, so it does not raise the heap
// goal and change how often the program's garbage is collected.
func newSpeedKernel() (*speedKernel, error) {
	r := rand.New(rand.NewPCG(1, 2))
	const n = 1 << 24
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the speed kernel's cycle: %w", err)
	}
	k := &speedKernel{
		next:    unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(mem))), n),
		keys:    make([]uint64, 1<<15),
		scratch: make([]uint64, 1<<15),
	}
	// Sattolo's algorithm: a uniformly random single cycle through all n
	// slots, so the walk never settles into a short loop.
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i)
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	for i := range k.keys {
		k.keys[i] = r.Uint64()
	}
	return k, nil
}

// run executes the kernel once and returns its wall time.
func (k *speedKernel) run() time.Duration {
	start := time.Now()
	p := uint32(0)
	for i := 0; i < 150_000; i++ {
		p = k.next[p]
	}
	x := uint64(p)
	for i := 0; i < 300_000; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		x ^= z ^ z>>31
	}
	copy(k.scratch, k.keys)
	slices.Sort(k.scratch)
	k.sink += x + k.scratch[len(k.scratch)/2]
	return time.Since(start)
}

// speedScale is refKernel over the median of samples: the factor that
// brings times measured alongside the samples to the reference speed.
func speedScale(samples []time.Duration) float64 {
	ms := millis(samples)
	return float64(refKernel.Nanoseconds()) / 1e6 / median(ms)
}
