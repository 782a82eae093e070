package directgraph

import (
	"errors"
	"fmt"
)

// Image validation: walk a materialized DirectGraph page by page,
// decode every section, and chase every embedded address. This is the
// firmware's security validation of Section VI-E and the offline
// integrity check behind dgtool, exercising the same ErrCorruptSection
// paths the on-die sampler hits at runtime.

// ValidationIssue is one problem found in a DirectGraph image.
type ValidationIssue struct {
	Page    uint32
	Section int // section index within the page, -1 for page-level issues
	Err     error
}

func (i ValidationIssue) String() string {
	return fmt.Sprintf("page %d section %d: %v", i.Page, i.Section, i.Err)
}

// ValidationReport summarizes a full image walk.
type ValidationReport struct {
	Pages           int // pages visited
	Sections        int // sections decoded successfully
	CorruptSections int // sections that failed to decode
	DanglingAddrs   int // addresses that leave the allocated pages or miss their section
	Issues          []ValidationIssue
}

// OK reports whether the image validated cleanly.
func (r *ValidationReport) OK() bool {
	return r.CorruptSections == 0 && r.DanglingAddrs == 0 && len(r.Issues) == 0
}

func (r *ValidationReport) add(page uint32, section int, err error) {
	r.Issues = append(r.Issues, ValidationIssue{Page: page, Section: section, Err: err})
}

// Validate decodes every section of every page in the build and checks
// every address the image and its plans hold: each must land inside the
// image's page range, on a page it holds, on a section that decodes, of
// the right type — a secondary for a primary's secondary pointers, a
// primary for inline neighbors and secondary entries, and node v's
// primary for plan v's address. Unlike the sampler it does not stop at
// the first error: all issues are collected, pages in page order and
// then plans in node order. Layout-only builds (nil Pages) validate
// trivially.
//
// Every page's section chain is walked once, with ViewSection's checks,
// into a table of what ViewSection returns for each section index, and
// every address is checked against its target page's entry there: a
// check costs two array reads, not a walk of the target page.
func Validate(b *Build) *ValidationReport {
	r := &ValidationReport{}
	if b.Pages == nil {
		return r
	}
	l := b.Layout
	st := &sectionTable{targets: make([]target, len(b.Pages))}
	for i, page := range b.Pages {
		if page != nil {
			st.addPage(l, i, page)
		}
	}

	// check verifies one embedded address, found in section fromSec of
	// page from, that must point at a section of type want.
	check := func(from uint32, fromSec int, a Addr, want byte) {
		pn := l.Page(a)
		i := int(pn - b.First)
		var err error
		switch {
		case i >= len(st.targets):
			err = fmt.Errorf("addr %#x escapes the allocated pages (page %d)", uint32(a), pn)
		case !st.targets[i].present:
			err = fmt.Errorf("addr %#x targets missing page %d", uint32(a), pn)
		default:
			if typ, serr := st.kind(st.targets[i], l.Section(a)); serr != nil {
				err = fmt.Errorf("addr %#x: %w", uint32(a), serr)
			} else if typ != want {
				err = fmt.Errorf("addr %#x targets type %d section, want %d", uint32(a), typ, want)
			}
		}
		if err != nil {
			r.DanglingAddrs++
			r.add(from, fromSec, err)
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
			r.add(pn, -1, st.targets[i].end)
			continue
		}
		off := 0
		for idx := 0; ; idx++ {
			var s SectionView
			typ, length, err := sectionHeader(l, page, off)
			if err == nil {
				s, err = viewSection(l, page, off, typ, length)
			}
			if errors.Is(err, ErrSectionNotFound) {
				break
			}
			if err != nil {
				r.CorruptSections++
				r.add(pn, idx, err)
				break // the section chain is unwalkable past a bad header
			}
			r.Sections++
			for i := range s.SecondaryCount {
				check(pn, idx, s.Secondary(i), SectionTypeSecondary)
			}
			for i := range s.InlineCount {
				check(pn, idx, s.Inline(i), SectionTypePrimary)
			}
			for i := range s.Count {
				check(pn, idx, s.Entry(i), SectionTypePrimary)
			}
			off += length
		}
	}
	for v := range b.Plans {
		if _, err := b.Primary(v); err != nil {
			a := b.Plans[v].Primary
			r.DanglingAddrs++
			r.add(l.Page(a), l.Section(a), err)
		}
	}
	return r
}

// sectionTable records, for every section of every page of an image,
// what ViewSection returns for it: the section's type, or the error.
// The types of all pages share one array, so an address check reads
// one byte.
type sectionTable struct {
	targets []target      // by page number − the image's first page
	types   []byte        // by first+index; 0 where the section does not decode
	errs    map[int]error // the decode errors, by first+index
}

// target is a page as an address check sees it: whether the image
// holds it, where its sections start in the table and how many the
// chain reaches, and the error ViewSection returns for every index past
// them.
type target struct {
	present  bool
	first, n int
	end      error
}

// addPage walks the page's section chain once, making ViewSection's
// checks at every step, and records each section it reaches.
func (st *sectionTable) addPage(l Layout, i int, page []byte) {
	t := target{present: true, first: len(st.types)}
	if len(page) != l.PageSize {
		t.end = fmt.Errorf("%w: page length %d != %d", ErrCorruptSection, len(page), l.PageSize)
		st.targets[i] = t
		return
	}
	for off := 0; ; {
		typ, length, err := sectionHeader(l, page, off)
		if err != nil {
			t.end = err
			break
		}
		if _, err := viewSection(l, page, off, typ, length); err != nil {
			if st.errs == nil {
				st.errs = make(map[int]error)
			}
			st.errs[len(st.types)] = err
			typ = 0
		}
		st.types = append(st.types, typ)
		t.n++
		off += length
	}
	st.targets[i] = t
}

// kind returns the type of section idx of the target page, or the
// error ViewSection returns for it.
func (st *sectionTable) kind(t target, idx int) (byte, error) {
	if idx >= t.n {
		return 0, t.end
	}
	if typ := st.types[t.first+idx]; typ != 0 {
		return typ, nil
	}
	return 0, st.errs[t.first+idx]
}
