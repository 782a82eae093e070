package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
	"beacongnn/internal/platform"
)

func TestGenerateAndValidate(t *testing.T) {
	tr, err := Generate("amazon", 1000, 32, 5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Batches) != 5 || len(tr.Batches[0]) != 32 {
		t.Fatalf("shape = %d×%d", len(tr.Batches), len(tr.Batches[0]))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr, _ := Generate("x", 100, 8, 2, 0, 1)
	tr.Batches[1][3] = 100 // out of domain
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-domain target accepted")
	}
	tr2, _ := Generate("x", 100, 8, 2, 0, 1)
	tr2.Batches[0] = tr2.Batches[0][:4]
	if err := tr2.Validate(); err == nil {
		t.Fatal("short batch accepted")
	}
	if err := (&Trace{Nodes: 10, BatchSize: 4}).Validate(); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr, _ := Generate("reddit", 500, 16, 4, 1.2, 9)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != tr.Dataset || got.Skew != tr.Skew || len(got.Batches) != len(tr.Batches) {
		t.Fatalf("metadata lost: %+v", got)
	}
	for i := range tr.Batches {
		for j := range tr.Batches[i] {
			if got.Batches[i][j] != tr.Batches[i][j] {
				t.Fatalf("batch %d target %d differs", i, j)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"nodes":0,"batch_size":4,"batches":[[1,2,3,4]]}`)); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestTargetsWrapAround(t *testing.T) {
	tr, _ := Generate("x", 100, 4, 2, 0, 3)
	a := tr.Targets(0)
	b := tr.Targets(2) // wraps to batch 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("wrap-around broken")
		}
	}
}

func TestHotSetDetectsSkew(t *testing.T) {
	uniform, _ := Generate("x", 10_000, 64, 20, 0, 5)
	skewed, _ := Generate("x", 10_000, 64, 20, 1.4, 5)
	u, s := uniform.HotSet(0.8), skewed.HotSet(0.8)
	if s >= u {
		t.Fatalf("skewed hot set (%d) not smaller than uniform (%d)", s, u)
	}
}

func TestGeneratePropertyInDomain(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 10
		tr, err := Generate("p", n, 8, 3, 0.9, seed)
		return err == nil && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayMakesRunsWorkloadIdentical(t *testing.T) {
	// Two platforms replaying the same trace must read the same number
	// of root targets, and replaying twice on one platform must be
	// byte-identical in time.
	cfg := config.Default()
	cfg.GNN.BatchSize = 16
	d, err := dataset.ByName("amazon")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dataset.Materialize(d, 2000, cfg.Flash.PageSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate("amazon", inst.Graph.NumNodes(), cfg.GNN.BatchSize, 2, 0, 123)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *platform.Result {
		s, err := platform.NewSystem(platform.BG2, cfg, inst, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.SetTargetSource(tr.Targets)
		r, err := s.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.FlashReads != b.FlashReads {
		t.Fatal("trace replay not deterministic")
	}
}

// FuzzTraceLoad hardens trace.Load, the input beacontrace -inspect and
// -replay read: any input is either rejected or a trace that passes
// Validate, whose batches yield in-domain targets, and which survives a
// Save and Load unchanged. The seeds are the committed inputs in
// testdata/traceload, in file-name order.
func FuzzTraceLoad(f *testing.F) {
	dir := filepath.Join("testdata", "traceload")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries { // ReadDir sorts by file name
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Load accepted an invalid trace: %v", err)
		}
		for i := range tr.Batches {
			for _, v := range tr.Targets(i) {
				if int(v) >= tr.Nodes {
					t.Fatalf("batch %d yields target %d outside [0,%d)", i, v, tr.Nodes)
				}
			}
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("a saved trace does not load: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("save and load changed the trace:\n%+v\n%+v", tr, again)
		}
	})
}
