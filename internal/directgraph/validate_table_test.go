package directgraph_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"beacongnn/internal/directgraph"
	"beacongnn/internal/graph"
)

// validateByViewSection is the reference walker: it reaches section idx
// of a page, and the section an address names, through ViewSection,
// walking the page's chain from section 0 each time. Validate must give
// the same report from one walk per page.
func validateByViewSection(b *directgraph.Build) *directgraph.ValidationReport {
	r := &directgraph.ValidationReport{}
	if b.Pages == nil {
		return r
	}
	add := func(page uint32, section int, err error) {
		r.Issues = append(r.Issues, directgraph.ValidationIssue{Page: page, Section: section, Err: err})
	}
	l := b.Layout
	check := func(from uint32, fromSec int, a directgraph.Addr, want byte) {
		pn := l.Page(a)
		target, ok := b.Page(pn)
		var err error
		switch {
		case pn < b.First || pn-b.First >= uint32(len(b.Pages)):
			err = fmt.Errorf("addr %#x escapes the allocated pages (page %d)", uint32(a), pn)
		case !ok:
			err = fmt.Errorf("addr %#x targets missing page %d", uint32(a), pn)
		default:
			var s directgraph.SectionView
			if s, err = directgraph.ViewSection(l, target, l.Section(a)); err != nil {
				err = fmt.Errorf("addr %#x: %w", uint32(a), err)
			} else if s.Type != want {
				err = fmt.Errorf("addr %#x targets type %d section, want %d", uint32(a), s.Type, want)
			}
		}
		if err != nil {
			r.DanglingAddrs++
			add(from, fromSec, err)
		}
	}
	for i, page := range b.Pages {
		if page == nil {
			continue
		}
		pn := b.First + uint32(i)
		r.Pages++
		if len(page) != l.PageSize {
			r.CorruptSections++
			add(pn, -1, fmt.Errorf("%w: page length %d != %d", directgraph.ErrCorruptSection, len(page), l.PageSize))
			continue
		}
		for idx := 0; ; idx++ {
			s, err := directgraph.ViewSection(l, page, idx)
			if errors.Is(err, directgraph.ErrSectionNotFound) {
				break
			}
			if err != nil {
				r.CorruptSections++
				add(pn, idx, err)
				break
			}
			r.Sections++
			for i := range s.SecondaryCount {
				check(pn, idx, s.Secondary(i), directgraph.SectionTypeSecondary)
			}
			for i := range s.InlineCount {
				check(pn, idx, s.Inline(i), directgraph.SectionTypePrimary)
			}
			for i := range s.Count {
				check(pn, idx, s.Entry(i), directgraph.SectionTypePrimary)
			}
		}
	}
	for v := range b.Plans {
		if _, err := b.Primary(v); err != nil {
			a := b.Plans[v].Primary
			r.DanglingAddrs++
			add(l.Page(a), l.Section(a), err)
		}
	}
	return r
}

// sameReport compares two reports count for count and issue for issue,
// in order, by their printed form and their error chains' sentinels.
func sameReport(t *testing.T, name string, got, want *directgraph.ValidationReport) {
	t.Helper()
	if got.Pages != want.Pages || got.Sections != want.Sections ||
		got.CorruptSections != want.CorruptSections || got.DanglingAddrs != want.DanglingAddrs {
		t.Fatalf("%s: counts %d/%d/%d/%d, reference %d/%d/%d/%d", name,
			got.Pages, got.Sections, got.CorruptSections, got.DanglingAddrs,
			want.Pages, want.Sections, want.CorruptSections, want.DanglingAddrs)
	}
	if len(got.Issues) != len(want.Issues) {
		t.Fatalf("%s: %d issues, reference %d", name, len(got.Issues), len(want.Issues))
	}
	sentinels := []error{directgraph.ErrSectionNotFound, directgraph.ErrBadSectionType, directgraph.ErrCorruptSection}
	for i := range got.Issues {
		g, w := got.Issues[i], want.Issues[i]
		if g.String() != w.String() {
			t.Fatalf("%s: issue %d is %q, reference %q", name, i, g, w)
		}
		for _, s := range sentinels {
			if errors.Is(g.Err, s) != errors.Is(w.Err, s) {
				t.Fatalf("%s: issue %d: errors.Is(%v) differs from the reference", name, i, s)
			}
		}
	}
}

// TestValidateMatchesChainWalk checks that the one-walk-per-page
// validator reports exactly what walking every address's target page
// reports: on FuzzValidate's seed inputs, on dgtool's -corrupt/-drop
// damage, and on a relocated image.
func TestValidateMatchesChainWalk(t *testing.T) {
	l := directgraph.Layout{PageSize: 512, FeatureDim: 3}
	g, err := graph.Generate(graph.GenSpec{Nodes: 80, AvgDegree: 10, MaxDegree: 79, FeatureDim: 3, PowerLaw: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := directgraph.BuildGraph(l, g, &directgraph.SeqAllocator{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(base.Pages)

	cases := map[string]*directgraph.Build{"clean": base.Clone()}
	// FuzzValidate's seed corpus: one page's start overwritten.
	type seed struct {
		which uint8
		data  []byte
	}
	seeds := []seed{{0, []byte{}}, {1, make([]byte, 512)}}
	for i, page := range base.Pages[:min(4, n)] {
		seeds = append(seeds, seed{uint8(i), page}, seed{uint8(i), page[:16]},
			seed{uint8(i), append([]byte{directgraph.SectionTypeSecondary}, page[1:]...)})
	}
	for i, s := range seeds {
		b := base.Clone()
		copy(b.Pages[int(s.which)%n], s.data)
		cases[fmt.Sprintf("fuzz-seed-%d", i)] = b
	}
	// Each seed page shifted onto another page: chains that end early,
	// run past the page or change type mid-walk.
	for i, page := range base.Pages[:min(6, n)] {
		b := base.Clone()
		copy(b.Pages[(i+1)%n][7*i:], page)
		cases[fmt.Sprintf("shifted-%d", i)] = b
	}
	// dgtool validate -corrupt N -drop M: smash the first four bytes of
	// the N lowest pages, drop the M highest.
	for _, cd := range [][2]int{{1, 0}, {0, 1}, {3, 2}, {n, 0}} {
		b := base.Clone()
		for i := 0; i < cd[0] && i < n; i++ {
			pg := b.Pages[i]
			for j := 0; j < 4 && j < len(pg); j++ {
				pg[j] = 0xFF
			}
		}
		for i := 0; i < cd[1]; i++ {
			b.Pages[n-1-i] = nil
		}
		cases[fmt.Sprintf("corrupt-%d-drop-%d", cd[0], cd[1])] = b
	}
	// A truncated page and a relocated image with a dangling plan.
	short := base.Clone()
	short.Pages[2] = short.Pages[2][:100]
	cases["short-page"] = short
	moved := base.Clone()
	if err := directgraph.Relocate(moved, 1000); err != nil {
		t.Fatal(err)
	}
	moved.Plans[5].Primary++
	cases["relocated"] = moved

	for name, b := range cases {
		want := validateByViewSection(b)
		got := directgraph.Validate(b)
		sameReport(t, name, got, want)
	}
	if rep := directgraph.Validate(cases["corrupt-3-drop-2"]); rep.OK() || rep.CorruptSections == 0 || rep.DanglingAddrs == 0 {
		t.Fatalf("damaged image reported %+v; the comparison needs both kinds of issue", rep)
	}
	if !reflect.DeepEqual(directgraph.Validate(cases["clean"]), validateByViewSection(cases["clean"])) {
		t.Fatal("clean image: reports differ")
	}
}
