package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cloudsuite/internal/analysis/statefp"
)

const repoRoot = "../.."

// TestCheck: -check passes on the repository, and fails against a copy
// of the golden that lost one checkpointed type. Type-checking the
// module is the test's whole cost, so it computes the schema once and
// checks both goldens against it.
func TestCheck(t *testing.T) {
	cur, err := statefp.Compute(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join(repoRoot, "internal", "sim", "checkpoint", "testdata", "schema_golden.json")
	var out bytes.Buffer
	if code := gate(cur, goldenPath, &out); code != 0 {
		t.Fatalf("statefp -check on the repository exited %d", code)
	}
	if !strings.Contains(out.String(), "schema matches golden") {
		t.Fatalf("unexpected report: %q", out.String())
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]any
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	types := golden["types"].(map[string]any)
	names := make([]string, 0, len(types))
	for name := range types {
		names = append(names, name)
	}
	sort.Strings(names)
	delete(types, names[0])
	raw, err = json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := gate(cur, path, &out); code != 1 {
		t.Fatalf("statefp -check against a golden missing %s exited %d, want 1", names[0], code)
	}
}
