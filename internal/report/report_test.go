package report

import (
	"math"
	"strings"
	"testing"

	"hyades/internal/gcm/field"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "name", "value")
	tb.Add("a", "1")
	tb.Addf("%s|%d", "longer-name", 22)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Fatal("missing title")
	}
	// Both data rows must place the second column at the same offset.
	iA := strings.Index(lines[3], "1")
	iB := strings.Index(lines[4], "22")
	if iA != iB {
		t.Fatalf("columns misaligned: %d vs %d\n%s", iA, iB, out)
	}
}

func TestTableNoteAndShortRows(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Add("only-one")
	tb.Note = "hello"
	out := tb.String()
	if !strings.Contains(out, "note: hello") {
		t.Fatal("note missing")
	}
	if !strings.Contains(out, "only-one") {
		t.Fatal("short row dropped")
	}
}

func testField() *field.F2 {
	f := field.NewF2(4, 3, 0)
	v := 0.0
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			f.Set(i, j, v)
			v++
		}
	}
	return f
}

func TestFieldCSV(t *testing.T) {
	out := FieldCSV(testField())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d", len(lines))
	}
	if lines[0] != "0,1,2,3" {
		t.Fatalf("row 0 = %q", lines[0])
	}
	if lines[2] != "8,9,10,11" {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestFieldPGM(t *testing.T) {
	out := FieldPGM(testField())
	if !strings.HasPrefix(out, "P2\n4 3\n255\n") {
		t.Fatalf("header: %q", out[:20])
	}
	// North (j=2) first; its last cell (11) is the max -> 255.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasSuffix(lines[3], "255") {
		t.Fatalf("top row: %q", lines[3])
	}
	if !strings.HasPrefix(lines[5], "0") {
		t.Fatalf("bottom row: %q", lines[5])
	}
}

func TestFieldPGMConstantField(t *testing.T) {
	f := field.NewF2(3, 3, 0)
	f.Fill(7)
	out := FieldPGM(f)
	// Skip the three header lines; every pixel must be zero.
	body := strings.SplitN(out, "\n", 4)[3]
	for _, tok := range strings.Fields(body) {
		if tok != "0" {
			t.Fatalf("constant field rendered %q", tok)
		}
	}
}

func TestFieldASCIILandMarker(t *testing.T) {
	f := field.NewF2(8, 8, 0)
	f.Set(3, 2, math.NaN()) // on a sampled row of the coarse quick-look
	f.Set(0, 0, 1)
	out := FieldASCII(f, 8)
	if !strings.Contains(out, "#") {
		t.Fatal("NaN cells should render as '#'")
	}
}

func TestMicrosFormatting(t *testing.T) {
	cases := map[float64]string{
		8.6:     "8.6us",
		1640:    "1.64ms",
		2000000: "2s",
	}
	for in, want := range cases {
		if got := Micros(in); got != want {
			t.Errorf("Micros(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestGoodput(t *testing.T) {
	if g := Goodput(75, 100); g != 75 {
		t.Errorf("Goodput(75, 100) = %g, want 75", g)
	}
	if g := Goodput(0, 0); g != 0 {
		t.Errorf("Goodput(0, 0) = %g, want 0 (no division by zero)", g)
	}
	if g := Goodput(10, -1); g != 0 {
		t.Errorf("Goodput(10, -1) = %g, want 0", g)
	}
}
