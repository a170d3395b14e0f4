package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cloudsuite/internal/analysis"
)

// TestSuppressionsTable: -suppressions prints the audit table of the
// repository's //simlint:ok annotations, one row each.
func TestSuppressionsTable(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-suppressions", "../.."}, &out); code != 0 {
		t.Fatalf("simlint -suppressions exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 3 || lines[0] != "| Location | Analyzer | Reason |" {
		t.Fatalf("unexpected table:\n%s", out.String())
	}
	for _, row := range lines[2:] {
		if strings.Count(row, " | ") != 2 || strings.Contains(row, "(missing)") {
			t.Errorf("malformed row %q", row)
		}
	}
	if !strings.Contains(out.String(), "`internal/trace/emitter.go:") {
		t.Error("table lacks the emitter's buffer-pool suppression")
	}
}

// TestFlagsHandshake: -flags answers go vet's handshake with one
// boolean flag per analyzer.
func TestFlagsHandshake(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-flags"}, &out); code != 0 {
		t.Fatalf("simlint -flags exited %d", code)
	}
	var flags []struct {
		Name string
		Bool bool
	}
	if err := json.Unmarshal(out.Bytes(), &flags); err != nil {
		t.Fatalf("%v:\n%s", err, out.String())
	}
	if len(flags) != len(analysis.All) {
		t.Fatalf("%d flags for %d analyzers", len(flags), len(analysis.All))
	}
	for i, f := range flags {
		if f.Name != analysis.All[i].Name || !f.Bool {
			t.Errorf("flag %d = %+v, want boolean %s", i, f, analysis.All[i].Name)
		}
	}
}
