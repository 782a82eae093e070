package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestChunkRunCallsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64} {
		calls := make([]atomic.Int32, n)
		Run(n, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("n=%d: chunk %d ran %d times", n, i, c)
			}
		}
	}
}

func TestChunkZeroRunsOnCaller(t *testing.T) {
	var chunk0 uint64
	caller := goid()
	Run(4, func(i int) {
		if i == 0 {
			chunk0 = goid()
		}
	})
	if chunk0 != caller {
		t.Fatal("chunk 0 did not run on the calling goroutine")
	}
}

// goid returns the running goroutine's id, read from the
// "goroutine N [running]:" header of its stack dump.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// TestChunkPanicReachesCaller: a helper chunk's panic comes back on the
// caller with its own value, and only after every other chunk is done.
func TestChunkPanicReachesCaller(t *testing.T) {
	for _, bad := range []int{0, 2} {
		var finished atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			Run(5, func(i int) {
				if i == bad {
					panic("chunk failed")
				}
				time.Sleep(20 * time.Millisecond)
				finished.Add(1)
			})
			return nil
		}()
		if got != "chunk failed" {
			t.Fatalf("chunk %d: recovered %v, want the chunk's value", bad, got)
		}
		if f := finished.Load(); f != 4 {
			t.Fatalf("chunk %d: Run returned with %d of 4 other chunks finished", bad, f)
		}
	}
}

func TestChunkPanicLowestChunkWins(t *testing.T) {
	got := func() (v any) {
		defer func() { v = recover() }()
		Run(8, func(i int) {
			if i >= 3 {
				panic(i)
			}
		})
		return nil
	}()
	if got != 3 {
		t.Fatalf("recovered %v, want chunk 3's value", got)
	}
}

func TestChunkCount(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	cases := []struct{ work, min, want int }{
		{0, 10, 1},
		{9, 10, 1},
		{10, 10, 1},
		{20, 10, min(2, p)},
		{1 << 30, 1, p},
	}
	for _, c := range cases {
		if got := Count(c.work, c.min); got != c.want {
			t.Errorf("Count(%d, %d) = %d, want %d", c.work, c.min, got, c.want)
		}
	}
}
