package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestDesignTableMatches: the suppression table in DESIGN.md §8 is the
// generated audit, so it must equal -suppressions output row for row.
func TestDesignTableMatches(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-suppressions", "../.."}, &out); code != 0 {
		t.Fatalf("simlint -suppressions exited %d", code)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "### Standing suppressions (generated)\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"Standing suppressions (generated)\" section")
	}
	var table strings.Builder
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			table.WriteString(line + "\n")
		} else if table.Len() > 0 {
			break
		}
	}
	got, want := strings.Split(table.String(), "\n"), strings.Split(out.String(), "\n")
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("DESIGN.md §8 suppression table is stale at row %d: has %q, want %q; replace the table with `go run ./cmd/simlint -suppressions`", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("DESIGN.md §8 suppression table has %d rows, want %d; replace it with `go run ./cmd/simlint -suppressions`", len(got), len(want))
	}
}

// TestLintReportsFindings: a finding prints as file:line:col: message
// [analyzer] and exits 2; a clean module exits 0.
func TestLintReportsFindings(t *testing.T) {
	dir := t.TempDir()
	src := "package x\n\nfunc Sum(m map[int]int) (s int) {\n\tfor _, v := range m {\n\t\ts += v\n\t}\n\treturn s\n}\n"
	for name, content := range map[string]string{
		"go.mod":                  "module tmpmod\n\ngo 1.24\n",
		"internal/sim/x/x.go":     src,
		"internal/tools/clean.go": src,
	} {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if code := run([]string{dir}, &out); code != 2 {
		t.Fatalf("simlint on a map-order bug exited %d, want 2:\n%s", code, out.String())
	}
	want := filepath.Join(dir, "internal", "sim", "x", "x.go") + ":4:2: "
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 1 ||
		!strings.HasPrefix(lines[0], want) || !strings.HasSuffix(lines[0], "[maporder]") {
		t.Fatalf("want one maporder finding at %s, got:\n%s", want, out.String())
	}

	if err := os.RemoveAll(filepath.Join(dir, "internal", "sim")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{dir}, &out); code != 0 {
		t.Fatalf("simlint on a clean module exited %d:\n%s", code, out.String())
	}
}
