// Command simlint runs the project's static-analysis suite
// (internal/analysis): maporder, globalrand, checkpointcov, and
// memokey — the vet-time enforcement of the determinism, checkpoint-
// coverage, and memo-key contracts.
//
// Usage:
//
//	go run ./cmd/simlint ./...          # standalone over package patterns
//	go vet -vettool=$(which simlint) ./...
//	simlint -maporder ./...             # run a subset of analyzers
//	simlint -suppressions [dir]         # audit table of all annotations
//
// Standalone invocations re-exec through `go vet -vettool=<self>`, so
// both entry points share one code path: the go command compiles the
// packages, supplies export data for dependencies, and invokes this
// binary once per package with a vet.cfg JSON file (the unpublished vet
// driver protocol, implemented in unitchecker.go on the standard
// library only). Selecting analyzer flags narrows the run: if any
// analyzer flag is set true, only those analyzers run; -name=false
// removes one from the full suite.
//
// Exit status: 0 clean, 2 when diagnostics were reported, 1 on driver
// errors.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"cloudsuite/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, runs the requested mode, writes its report to out
// and returns the exit status.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ExitOnError)
	// The go command's tool handshake: `-V=full` must print a version
	// line; content-hashing the executable makes go's action cache
	// invalidate vet results whenever the analyzers change.
	versionFlag := fs.String("V", "", "print version (go command tool protocol)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	suppressionsFlag := fs.Bool("suppressions", false,
		"print the audit table of every //simlint:ok annotation under the argument directory (default .) and exit")
	enabled := map[string]*bool{}
	for _, a := range analysis.All {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+firstLine(a.Doc))
	}
	fs.Parse(args) // exits on a bad flag, as flag.Parse does

	switch {
	case *versionFlag != "":
		fmt.Fprintf(out, "simlint version %s\n", selfID())
		return 0
	case *flagsFlag:
		printFlagsJSON(out)
		return 0
	case *suppressionsFlag:
		return printSuppressions(fs.Args(), out)
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runUnitchecker(rest[0], selectAnalyzers(fs, enabled))
	}
	return runStandalone(args, out)
}

// selectAnalyzers applies vet's flag semantics: any analyzer flag
// explicitly set true selects exactly the true set; otherwise the full
// suite runs minus any explicitly disabled.
func selectAnalyzers(fs *flag.FlagSet, enabled map[string]*bool) []*analysis.Analyzer {
	explicitTrue := false
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		if _, ok := enabled[f.Name]; ok {
			set[f.Name] = true
			if *enabled[f.Name] {
				explicitTrue = true
			}
		}
	})
	var out []*analysis.Analyzer
	for _, a := range analysis.All {
		switch {
		case explicitTrue && *enabled[a.Name] && set[a.Name]:
			out = append(out, a)
		case !explicitTrue && *enabled[a.Name]:
			out = append(out, a)
		}
	}
	return out
}

// printSuppressions answers `simlint -suppressions [dir]`: the
// purely-syntactic annotation audit (no type checking, no go command),
// rendered as the markdown table DESIGN.md §8 embeds.
func printSuppressions(args []string, out io.Writer) int {
	root := "."
	if len(args) > 0 {
		root = args[0]
	}
	sups, err := analysis.ListSuppressions(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	fmt.Fprint(out, analysis.FormatSuppressions(sups))
	return 0
}

// runStandalone re-executes as a go vet backend so package loading,
// export data, and caching all come from the go command.
func runStandalone(args []string, out io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, args...)...)
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "simlint: running go vet: %v\n", err)
		return 1
	}
	return 0
}

// selfID returns a content hash of this executable for the go
// command's tool-version cache key.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// printFlagsJSON answers `simlint -flags`: the go vet flag handshake.
func printFlagsJSON(out io.Writer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	for _, a := range analysis.All {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: firstLine(a.Doc)})
	}
	data, _ := json.Marshal(flags)
	fmt.Fprintf(out, "%s\n", data)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
