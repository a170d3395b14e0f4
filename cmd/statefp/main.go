// Command statefp fingerprints the simulator's checkpointed state
// schema and gates it against the committed golden.
//
//	statefp            print the current schema
//	statefp -write     regenerate the golden (after a Version bump)
//	statefp -check     exit 1 if the schema drifted from the golden
//
// The gate enforces the checkpoint format contract statically: editing
// any SaveState/LoadState type (or a struct nested inside one) changes
// its fingerprint, and -check fails unless checkpoint.Version was
// bumped and the golden regenerated in the same change. See
// DESIGN.md §8.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cloudsuite/internal/analysis/statefp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, runs the requested mode, writes its report to out
// (problems go to stderr) and returns the exit status: 0 clean, 1 on
// schema drift, 2 on errors.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("statefp", flag.ExitOnError)
	root := fs.String("root", ".", "module root directory")
	golden := fs.String("golden", filepath.Join("internal", "sim", "checkpoint", "testdata", "schema_golden.json"),
		"golden schema path, relative to -root unless absolute")
	write := fs.Bool("write", false, "regenerate the golden from the current tree")
	check := fs.Bool("check", false, "fail if the current schema differs from the golden")
	fs.Parse(args) // exits on a bad flag, as flag.Parse does

	goldenPath := *golden
	if !filepath.IsAbs(goldenPath) {
		goldenPath = filepath.Join(*root, goldenPath)
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "statefp:", err)
		return 2
	}

	cur, err := statefp.Compute(*root)
	if err != nil {
		return fail(err)
	}

	switch {
	case *write:
		data, err := statefp.Marshal(cur)
		if err != nil {
			return fail(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "statefp: wrote %s (%d types, version %d)\n", goldenPath, len(cur.Types), cur.Version)
	case *check:
		return gate(cur, goldenPath, out)
	default:
		data, err := statefp.Marshal(cur)
		if err != nil {
			return fail(err)
		}
		out.Write(data)
	}
	return 0
}

// gate checks cur against the golden at goldenPath, reporting as run
// does, and returns run's exit status.
func gate(cur *statefp.Schema, goldenPath string, out io.Writer) int {
	old, err := statefp.Load(goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statefp:", err)
		return 2
	}
	if problems := statefp.Diff(old, cur); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "statefp:", p)
		}
		return 1
	}
	fmt.Fprintf(out, "statefp: schema matches golden (%d types, version %d)\n", len(cur.Types), cur.Version)
	return 0
}
