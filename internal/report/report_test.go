package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "metric"}}
	tab.Add("row-one", "1.5")
	tab.Add("row-two", "3.14")
	var b strings.Builder
	tab.Render(&b)
	out := b.String()
	for _, want := range []string{"T", "row-one", "row-two", "3.14", "metric"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: the header separator row must exist.
	if !strings.Contains(out, "---") {
		t.Error("no separator row")
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####" {
		t.Errorf("Bar = %q", got)
	}
	if got := Bar(20, 10, 10); len(got) != 10 {
		t.Errorf("Bar overflow not clamped: %q", got)
	}
	if Bar(1, 0, 10) != "" || Bar(-1, 10, 10) != "" {
		t.Error("degenerate inputs must render empty")
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.123) != "12.3%" {
		t.Errorf("Pct = %q", Pct(0.123))
	}
	if F2(1.234) != "1.23" || F1(1.26) != "1.3" {
		t.Errorf("float formatters wrong: %q %q", F2(1.234), F1(1.26))
	}
}
