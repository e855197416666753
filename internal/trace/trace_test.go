package trace

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Table 1: accuracy", "Class", "LL", "Quasar")
	tb.Add("Aggregate", "87%", "89%")
	tb.Add("memcached", "78%", "80%")
	out := tb.String()
	for _, want := range []string{"Table 1", "Class", "Aggregate", "memcached", "89%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + sep + 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableAlignsColumns(t *testing.T) {
	tb := NewTable("", "short", "x")
	tb.Add("muchlongercell", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// All lines should have equal rendered width.
	w := len(lines[0])
	for _, l := range lines[1:] {
		if len(l) != w {
			t.Fatalf("ragged table:\n%s", out)
		}
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length wrong: %q", s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("sparkline endpoints wrong: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Fatalf("flat series should render lowest level: %q", flat)
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := NewFigure("Fig 6a", "co-residents", "accuracy")
	f.AddSeries("accuracy", []float64{1, 2, 3}, []float64{95, 85, 70})
	out := f.String()
	for _, want := range []string{"Fig 6a", "co-residents", "accuracy", "95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap("Fig 2", "LLC", "L1i", 2, 3)
	h.Set(0, 0, 0)
	h.Set(1, 2, 1)
	if h.At(1, 2) != 1 {
		t.Fatal("Set/At mismatch")
	}
	out := h.String()
	if !strings.Contains(out, "Fig 2") || !strings.Contains(out, "@") {
		t.Fatalf("heatmap output wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // title + 2 rows
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
}
