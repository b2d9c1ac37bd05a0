package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestE1PinsThePaperNarrative(t *testing.T) {
	tab := E1Figure1(context.Background())
	got := map[string]string{}
	for _, row := range tab.Rows {
		got[row[0]] = row[1]
	}
	if got["view sound?"] != "false" {
		t.Fatalf("E1 rows: %v", tab.Rows)
	}
	if got["unsound composites"] != "16" {
		t.Fatalf("unsound composites = %q", got["unsound composites"])
	}
	if got["view provenance of (18)"] != "13,14,15,16" {
		t.Fatalf("view provenance = %q", got["view provenance of (18)"])
	}
	if got["false pairs after correction"] != "0" {
		t.Fatalf("correction did not clean the audit: %v", tab.Rows)
	}
	if !strings.Contains(got["witness"], "4") || !strings.Contains(got["witness"], "7") {
		t.Fatalf("witness = %q", got["witness"])
	}
	// The corrected provenance of 18 must drop 14.
	if strings.Contains(got["corrected provenance of (18)"], "14") {
		t.Fatalf("corrected provenance still contains 14: %q", got["corrected provenance of (18)"])
	}
}

func TestE2PinsFigure3(t *testing.T) {
	tab := E2Figure3(context.Background())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	counts := map[string]string{}
	for _, row := range tab.Rows {
		counts[row[0]] = row[1]
	}
	if counts["weak-local-optimal"] != "8" || counts["strong-local-optimal"] != "5" || counts["optimal"] != "5" {
		t.Fatalf("block counts = %v", counts)
	}
}

func TestE3QualityOrdering(t *testing.T) {
	tab := E3Quality(context.Background(), true)
	for _, row := range tab.Rows {
		qw, err1 := strconv.ParseFloat(row[5], 64)
		qs, err2 := strconv.ParseFloat(row[6], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad quality cells in %v", row)
		}
		if qs < qw-1e-9 {
			t.Fatalf("strong quality below weak in %v", row)
		}
		if qs > 1.0+1e-9 || qw > 1.0+1e-9 {
			t.Fatalf("quality above 1 in %v", row)
		}
	}
}

func TestE8SurveyFindsUnsoundViews(t *testing.T) {
	tab := E8Survey()
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	unsound := 0
	for _, row := range tab.Rows {
		n, _ := strconv.Atoi(row[3])
		unsound += n
	}
	if unsound < 5 {
		t.Fatalf("survey found only %d unsound views", unsound)
	}
}

func TestAllFastRunsAndRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in short mode")
	}
	start := time.Now()
	tabs := All(context.Background(), true)
	if len(tabs) != 11 {
		t.Fatalf("tables = %d", len(tabs))
	}
	var buf bytes.Buffer
	for _, tab := range tabs {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if err := tab.Markdown(&buf); err != nil {
			t.Fatal(err)
		}
		if tab.ID == "" || tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("incomplete table %+v", tab)
		}
	}
	for _, want := range []string{"== E1:", "== A2:", "### E4:", "| n |"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q", want)
		}
	}
	t.Logf("fast harness took %v", time.Since(start))
}

func TestByID(t *testing.T) {
	for _, id := range []string{"e1", "E2", "e8", "a2"} {
		tab, err := ByID(context.Background(), id, true)
		if err != nil || tab == nil {
			t.Fatalf("ByID(context.Background(), %s) = %v", id, err)
		}
	}
	if _, err := ByID(context.Background(), "zz", true); err == nil {
		t.Fatal("unknown id must error")
	}
}
