package directgraph

import (
	"errors"
	"fmt"
	"sort"
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
// every address the image and its plans hold: each must land on a page
// the plans allocate (PageNumbers), on a section that decodes, of the
// right type — a secondary for a primary's secondary pointers, a
// primary for inline neighbors and secondary entries, and node v's
// primary for plan v's address. Unlike the sampler it does not stop at
// the first error: all issues are collected, pages in sorted order and
// then plans in node order. Layout-only builds (nil Pages) validate
// trivially.
func Validate(b *Build) *ValidationReport {
	r := &ValidationReport{}
	if b.Pages == nil {
		return r
	}
	l := b.Layout
	allowed := b.PageNumbers()
	pages := make([]uint32, 0, len(b.Pages))
	for pn := range b.Pages {
		pages = append(pages, pn)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })

	// check verifies one embedded address, found in section fromSec of
	// page from, that must point at a section of type want.
	check := func(from uint32, fromSec int, a Addr, want byte) {
		pn := l.Page(a)
		target, ok := b.Pages[pn]
		var err error
		switch {
		case !allowed[pn]:
			err = fmt.Errorf("addr %#x escapes the allocated pages (page %d)", uint32(a), pn)
		case !ok:
			err = fmt.Errorf("addr %#x targets missing page %d", uint32(a), pn)
		default:
			var s SectionView
			if s, err = ViewSection(l, target, l.Section(a)); err != nil {
				err = fmt.Errorf("addr %#x: %w", uint32(a), err)
			} else if s.Type != want {
				err = fmt.Errorf("addr %#x targets type %d section, want %d", uint32(a), s.Type, want)
			}
		}
		if err != nil {
			r.DanglingAddrs++
			r.add(from, fromSec, err)
		}
	}

	for _, pn := range pages {
		page := b.Pages[pn]
		r.Pages++
		if len(page) != l.PageSize {
			r.CorruptSections++
			r.add(pn, -1, fmt.Errorf("%w: page length %d != %d", ErrCorruptSection, len(page), l.PageSize))
			continue
		}
		for idx := 0; ; idx++ {
			s, err := ViewSection(l, page, idx)
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
