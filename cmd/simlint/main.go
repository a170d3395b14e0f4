// Command simlint runs the project's static-analysis suite
// (internal/analysis) over every package of a module: maporder,
// globalrand, checkpointcov, memokey, lockfield, obspure and
// clocktaint — the enforcement of the determinism, checkpoint-coverage,
// memo-key and observer-purity contracts.
//
// Usage:
//
//	go run ./cmd/simlint [dir]                 # lint the module rooted at dir (default .)
//	go run ./cmd/simlint -suppressions [dir]   # audit table of all annotations
//
// The module is type-checked from source by analysis.Loader, non-test
// files only (every analyzer covers non-test code), skipping testdata
// and nested modules. Each finding prints as
// `file:line:col: message [analyzer]`.
//
// Exit status: 0 clean, 2 when diagnostics were reported, 1 on errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cloudsuite/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, runs the requested mode, writes its report to out
// and returns the exit status.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ExitOnError)
	suppressions := fs.Bool("suppressions", false,
		"print the audit table of every //simlint:ok annotation under the argument directory (default .) and exit")
	fs.Parse(args) // exits on a bad flag, as flag.Parse does

	root := "."
	if fs.NArg() > 0 {
		root = fs.Arg(0)
	}
	if *suppressions {
		return printSuppressions(root, out)
	}
	return lint(root, out)
}

// lint loads the module rooted at root once and runs the whole suite
// over each of its packages.
func lint(root string, out io.Writer) int {
	l, err := analysis.ModuleLoader(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	code := 0
	for _, pkg := range pkgs {
		for _, d := range analysis.Run(pkg, analysis.All) {
			fmt.Fprintf(out, "%s: %s [%s]\n", l.Fset.Position(d.Pos), d.Message, d.Analyzer)
			code = 2
		}
	}
	return code
}

// printSuppressions answers `simlint -suppressions [dir]`: the
// purely-syntactic annotation audit (no type checking), rendered as the
// markdown table DESIGN.md §8 embeds.
func printSuppressions(root string, out io.Writer) int {
	sups, err := analysis.ListSuppressions(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	fmt.Fprint(out, analysis.FormatSuppressions(sups))
	return 0
}
