package report

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("Demo", "", "Images", "HTML")
	t.AddRow("Requests", "100", "50")
	t.AddRowf("", 0.5, 12.345)
	return t
}

func TestTableText(t *testing.T) {
	out := sampleTable().Text()
	if !strings.Contains(out, "Demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "Images") || !strings.Contains(out, "HTML") {
		t.Error("headers missing")
	}
	if !strings.Contains(out, "Requests") {
		t.Error("row label missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

// TestTableTextPadsByRunes pins the alignment of cells holding non-ASCII
// letters, as the α/β rows and headers of the paper's tables do: a cell is
// as wide as its runes, not its bytes.
func TestTableTextPadsByRunes(t *testing.T) {
	tbl := NewTable("", "scheme", "image α", "html")
	tbl.AddRow("GD*(P) β", "0.5", "0.25")
	tbl.AddRow("LRU", "0.75", "1")
	want := "scheme    image α  html\n" +
		"-----------------------\n" +
		"GD*(P) β      0.5  0.25\n" +
		"LRU          0.75     1\n"
	if got := tbl.Text(); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow(`comma,and"quote`, "x")
	out := tbl.CSV()
	if !strings.Contains(out, `"comma,and""quote"`) {
		t.Errorf("CSV escaping broken:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("CSV header broken:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("1", "2", "3") // wider than the header
	tbl.AddRow()              // empty row
	out := tbl.Text()
	if !strings.Contains(out, "3") {
		t.Error("extra cells dropped")
	}
	if tbl.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tbl.NumRows())
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{1, "1"},
		{1.5, "1.5"},
		{12.345, "12.35"}, // hmm: rounds at 2 decimals
		{0.5, "0.5"},
		{0.1234, "0.1234"},
		{0.12, "0.12"},
		{2048, "2048"},
		{-3.25, "-3.25"},
	}
	for _, tt := range tests {
		if got := FormatFloat(tt.in); got != tt.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
