package directgraph_test

import (
	"testing"

	"beacongnn/internal/dataset"
	"beacongnn/internal/directgraph"
)

// TestViewSectionMatchesFindSectionOnDatasets reads every section of
// every page of each dataset's DirectGraph both ways — in place, as the
// die samplers do, and copied out through FindSection — and requires
// identical fields, arrays and feature bits.
func TestViewSectionMatchesFindSectionOnDatasets(t *testing.T) {
	for _, d := range dataset.All() {
		inst, err := dataset.Materialize(d, 5000, 4096, 1)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		l := inst.Build.Layout
		sections := 0
		for pn, page := range inst.Build.Pages {
			n, err := directgraph.SectionsInPage(l, page)
			if err != nil {
				t.Fatalf("%s page %d: %v", d.Name, pn, err)
			}
			// One index past the end checks the not-found path too.
			for idx := 0; idx <= n; idx++ {
				if err := directgraph.ViewMatchesFind(l, page, idx); err != nil {
					t.Fatalf("%s page %d: %v", d.Name, pn, err)
				}
			}
			sections += n
		}
		if sections < 5000 {
			t.Fatalf("%s: only %d sections checked for 5000 nodes", d.Name, sections)
		}
	}
}
