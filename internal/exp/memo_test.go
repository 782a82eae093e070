package exp

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/platform"
)

// countEncodes counts calls to the memo's encoder until the test ends.
func countEncodes(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := encodeResult
	encodeResult = func(res *platform.Result) ([]byte, error) {
		n.Add(1)
		return orig(res)
	}
	t.Cleanup(func() { encodeResult = orig })
	return &n
}

// TestMemoKeepsOneEncodingPerEntry checks the one-entry rule: hits on a
// resident key serve the same encoded bytes without encoding again, and
// once the entry is evicted the key is a miss whose new entry encodes
// afresh, to the same bytes.
func TestMemoKeepsOneEncodingPerEntry(t *testing.T) {
	encodes := countEncodes(t)
	e := New(1)
	e.SetMemoCap(4)
	inst := testInstance(t)
	cfg := config.Default()
	key := Key(platform.BG2, cfg, inst, 2, 0)
	first, err := e.SimulateKeyCtx(context.Background(), key, &cfg, inst)
	if err != nil {
		t.Fatal(err)
	}
	served := make([][]byte, 2)
	for i := range served {
		m, ok := e.Lookup(key)
		if !ok || m != first {
			t.Fatalf("hit %d: Lookup = %p, %v; want the resident %p", i, m, ok, first)
		}
		if served[i], err = m.JSON(); err != nil {
			t.Fatal(err)
		}
	}
	if &served[0][0] != &served[1][0] || encodes.Load() != 1 {
		t.Fatalf("two hits: %d encodings, shared bytes %v; want 1, true", encodes.Load(), &served[0][0] == &served[1][0])
	}

	if n := e.EvictOldest(1); n != 1 {
		t.Fatalf("evicted %d entries, want 1", n)
	}
	if _, ok := e.Lookup(key); ok {
		t.Fatal("Lookup hit an evicted key")
	}
	again, err := e.SimulateKeyCtx(context.Background(), key, &cfg, inst)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if again == first || encodes.Load() != 2 || &enc[0] == &served[0][0] {
		t.Fatalf("after eviction: new entry %v, %d encodings, new bytes %v; want true, 2, true",
			again != first, encodes.Load(), &enc[0] != &served[0][0])
	}
	if !bytes.Equal(enc, served[0]) {
		t.Fatal("re-encoded result differs from the evicted entry's")
	}
}

// TestMemoFirstServeEncodesOnce races the first serve of one key from
// many goroutines: the simulation runs once, every caller gets the same
// entry, and the entry is encoded exactly once.
func TestMemoFirstServeEncodesOnce(t *testing.T) {
	encodes := countEncodes(t)
	e := New(4)
	inst := testInstance(t)
	cfg := config.Default()
	key := Key(platform.BG2, cfg, inst, 2, 0)
	const callers = 16
	served := make([][]byte, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			m, err := e.SimulateKeyCtx(context.Background(), key, &cfg, inst)
			if err == nil {
				served[i], err = m.JSON()
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if runs, _ := e.Stats(); runs != 1 || encodes.Load() != 1 {
		t.Fatalf("%d runs, %d encodings; want 1, 1", runs, encodes.Load())
	}
	for i := 1; i < callers; i++ {
		if &served[i][0] != &served[0][0] {
			t.Fatalf("caller %d was served other bytes than caller 0", i)
		}
	}
}
