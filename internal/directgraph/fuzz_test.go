package directgraph

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"beacongnn/internal/graph"
)

// FuzzFindSection hardens the page decoder — the exact code path the
// on-die sampler runs against whatever bytes sit in the cache register.
// It must reject arbitrary corruption with an error, never a panic or
// an out-of-bounds read (Section VI-E's "stop immediately" behaviour).
func FuzzFindSection(f *testing.F) {
	l := Layout{PageSize: 1024, FeatureDim: 4}
	g, err := graph.Generate(graph.GenSpec{Nodes: 60, AvgDegree: 8, FeatureDim: 4, PowerLaw: 2.0, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	b, err := BuildGraph(l, g, &SeqAllocator{})
	if err != nil {
		f.Fatal(err)
	}
	for pn := range b.Pages {
		f.Add(b.Pages[pn], 0)
		break
	}
	f.Add(make([]byte, 1024), 3)
	f.Fuzz(func(t *testing.T, page []byte, idx int) {
		if len(page) != l.PageSize {
			// Wrong-size pages must be rejected cleanly too.
			if _, err := FindSection(l, page, idx&0xF); err == nil {
				t.Fatal("wrong-size page accepted")
			}
			return
		}
		sec, err := FindSection(l, page, idx&0xF)
		if err != nil {
			return
		}
		// Anything accepted must be internally consistent.
		if sec.Length < commonHeaderLen || sec.StartOffset+sec.Length > l.PageSize {
			t.Fatalf("accepted section with bad bounds: %+v", sec)
		}
		switch sec.Type {
		case SectionTypePrimary:
			if len(sec.Inline) != sec.InlineCount || len(sec.FeatureBits) != l.FeatureDim {
				t.Fatalf("inconsistent primary decode: %+v", sec)
			}
		case SectionTypeSecondary:
			if len(sec.Entries) != sec.Count {
				t.Fatalf("inconsistent secondary decode: %+v", sec)
			}
		default:
			t.Fatalf("accepted unknown type %d", sec.Type)
		}
	})
}

// FuzzRelocate round-trips mutated pages through the wear-levelling
// address patcher. Relocation runs inside firmware against whatever
// bytes flash returns, so it must reject corruption with an error (never
// a panic or out-of-bounds write), and on pages it does accept it must
// preserve the section count and keep every section decodable at the
// shifted location.
func FuzzRelocate(f *testing.F) {
	l := Layout{PageSize: 1024, FeatureDim: 4}
	g, err := graph.Generate(graph.GenSpec{Nodes: 60, AvgDegree: 8, FeatureDim: 4, PowerLaw: 2.0, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	b, err := BuildGraph(l, g, &SeqAllocator{})
	if err != nil {
		f.Fatal(err)
	}
	for pn := range b.Pages {
		f.Add(b.Pages[pn], uint32(64))
		break
	}
	f.Add(make([]byte, 1024), uint32(1))
	f.Fuzz(func(t *testing.T, page []byte, delta uint32) {
		delta %= 1 << 20 // keep page<<SectionBits from wrapping uint32
		cp := append([]byte(nil), page...)
		fb := &Build{Layout: l, Pages: map[uint32][]byte{7: cp}}
		before, beforeErr := SectionsInPage(l, cp)
		if err := Relocate(fb, delta); err != nil {
			return // rejected cleanly: fine, whatever the corruption was
		}
		moved, ok := fb.Pages[7+delta]
		if !ok {
			t.Fatalf("relocated page missing from key %d", 7+delta)
		}
		if beforeErr == nil {
			after, err := SectionsInPage(l, moved)
			if err != nil {
				t.Fatalf("accepted page undecodable after relocation: %v", err)
			}
			if after != before {
				t.Fatalf("section count changed %d -> %d", before, after)
			}
			for i := 0; i < after; i++ {
				if _, err := FindSection(l, moved, i); err != nil {
					t.Fatalf("section %d undecodable after relocation: %v", i, err)
				}
			}
		}
	})
}

// FuzzSectionsInPage must likewise never panic on corrupt pages.
func FuzzSectionsInPage(f *testing.F) {
	l := Layout{PageSize: 512, FeatureDim: 2}
	f.Add(make([]byte, 512))
	f.Fuzz(func(t *testing.T, page []byte) {
		if len(page) != l.PageSize {
			return
		}
		n, _ := SectionsInPage(l, page)
		if n < 0 || n > l.PageSize/commonHeaderLen {
			t.Fatalf("implausible section count %d", n)
		}
	})
}

// FuzzViewSection differentially checks the in-place reader the die
// samplers use against FindSection's copied-out decode: on arbitrary
// page bytes and section indices both must fail with the same error, or
// both succeed with identical fields and arrays.
func FuzzViewSection(f *testing.F) {
	// An odd feature dim exercises both the 4-wide and the tail copy.
	l := Layout{PageSize: 1024, FeatureDim: 5}
	g, err := graph.Generate(graph.GenSpec{Nodes: 60, AvgDegree: 40, FeatureDim: 5, PowerLaw: 2.0, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	b, err := BuildGraph(l, g, &SeqAllocator{})
	if err != nil {
		f.Fatal(err)
	}
	for pn := range b.Pages {
		f.Add(b.Pages[pn], 0)
		f.Add(b.Pages[pn], 1)
		if pn > 4 {
			break
		}
	}
	f.Add(make([]byte, 1024), 3)
	f.Add(make([]byte, 100), 0)
	f.Fuzz(func(t *testing.T, page []byte, idx int) {
		if err := viewMatchesFind(l, page, idx&0xF); err != nil {
			t.Fatal(err)
		}
	})
}

// ViewMatchesFind exposes the differential check to the external test
// package, whose whole-dataset test needs dataset.Materialize.
var ViewMatchesFind = viewMatchesFind

// viewMatchesFind returns a non-nil error describing the first
// disagreement between ViewSection and FindSection on section idx.
func viewMatchesFind(l Layout, page []byte, idx int) error {
	v, verr := ViewSection(l, page, idx)
	s, ferr := FindSection(l, page, idx)
	if (verr == nil) != (ferr == nil) {
		return fmt.Errorf("section %d: view err %v, find err %v", idx, verr, ferr)
	}
	if verr != nil {
		for _, class := range []error{ErrSectionNotFound, ErrBadSectionType, ErrCorruptSection} {
			if errors.Is(verr, class) != errors.Is(ferr, class) {
				return fmt.Errorf("section %d: error classes differ: view %v, find %v", idx, verr, ferr)
			}
		}
		if verr.Error() != ferr.Error() {
			return fmt.Errorf("section %d: error text differs: view %q, find %q", idx, verr, ferr)
		}
		return nil
	}
	if v.Type != s.Type || v.Length != s.Length || v.NodeID != s.NodeID || v.StartOffset != s.StartOffset ||
		v.NeighborCount != s.NeighborCount || v.InlineCount != s.InlineCount ||
		v.BaseIndex != s.BaseIndex || v.Count != s.Count {
		return fmt.Errorf("section %d: header fields differ: view %+v, find %+v", idx, v, s)
	}
	if v.SecondaryCount != len(s.Secondaries) || len(s.Inline) != s.InlineCount || len(s.Entries) != s.Count {
		return fmt.Errorf("section %d: array lengths differ: view %+v, find %+v", idx, v, s)
	}
	for i, a := range s.Secondaries {
		if v.Secondary(i) != a {
			return fmt.Errorf("section %d: secondary %d: view %#x, find %#x", idx, i, v.Secondary(i), a)
		}
	}
	for i, a := range s.Inline {
		if v.Inline(i) != a {
			return fmt.Errorf("section %d: inline %d: view %#x, find %#x", idx, i, v.Inline(i), a)
		}
	}
	for i, a := range s.Entries {
		if v.Entry(i) != a {
			return fmt.Errorf("section %d: entry %d: view %#x, find %#x", idx, i, v.Entry(i), a)
		}
	}
	if fb := v.AppendFeatureBits(nil); !slices.Equal(fb, s.FeatureBits) {
		return fmt.Errorf("section %d: features differ: view %v, find %v", idx, fb, s.FeatureBits)
	}
	return nil
}
