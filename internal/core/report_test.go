package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestBuildReportStructure(t *testing.T) {
	rep, err := BuildReport(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fig7) != 8 {
		t.Fatalf("fig7 points = %d", len(rep.Fig7))
	}
	if len(rep.Fig14) != 5 || len(rep.Fig14N) != 5 {
		t.Fatalf("fig14 rows = %d/%d", len(rep.Fig14), len(rep.Fig14N))
	}
	for _, row := range rep.Fig14N {
		if row.Values["CC"] != 1 {
			t.Fatalf("%s normalization broken: CC = %v", row.Dataset, row.Values["CC"])
		}
		if row.Values["BG-2"] <= row.Values["BG-1"] {
			t.Fatalf("%s: BG-2 ≤ BG-1 in report", row.Dataset)
		}
	}
	if len(rep.Fig18) != 6 {
		t.Fatalf("fig18 sweeps = %d", len(rep.Fig18))
	}
	for _, s := range rep.Fig18 {
		if len(s.Series) != 5 || len(s.Points) < 2 {
			t.Fatalf("sweep %s malformed", s.Name)
		}
	}
	if len(rep.Fig19) != 8 || len(rep.Table4) != 5 {
		t.Fatalf("fig19/table4 = %d/%d", len(rep.Fig19), len(rep.Table4))
	}
	if rep.Trad["BG-2"] <= 1 {
		t.Fatalf("traditional BG-2 speedup = %v", rep.Trad["BG-2"])
	}
	if len(rep.Util) != 8 {
		t.Fatalf("util summaries = %d", len(rep.Util))
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := BuildReport(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Fig14) != len(rep.Fig14) || back.ScaleNodes != rep.ScaleNodes {
		t.Fatal("JSON round trip lost data")
	}
}
