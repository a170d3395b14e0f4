package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Annotation grammar
//
// One comment form opts code out of a check, requiring a stated reason
// so every exemption is an auditable decision rather than a silent
// hole:
//
//	//simlint:ok <analyzer> <reason>
//	    Suppresses diagnostics of <analyzer> on the annotation's own
//	    line and on the line directly below it (so the annotation can
//	    sit either at the end of the offending line or on its own line
//	    above it, doc-comment style).
//
// An annotation with a missing reason is itself a diagnostic: an
// unexplained exemption is exactly the kind of drift the suite exists
// to prevent.

const okPrefix = "//simlint:ok"

type okAnn struct {
	analyzer string
	line     int
	file     string
	pos      token.Pos
	// used is set when the annotation suppresses at least one diagnostic
	// of a run; an unused annotation is stale and itself reported (see
	// staleSuppressions), so suppressions cannot outlive the code they
	// excuse.
	used bool
}

type annotations struct {
	ok        []okAnn
	malformed []Diagnostic
}

// collectAnnotations scans every comment of every file for simlint
// annotations, recording well-formed //simlint:ok markers and
// reporting malformed ones (missing the analyzer or the reason).
func collectAnnotations(fset *token.FileSet, files []*ast.File) *annotations {
	anns := &annotations{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, okPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, okPrefix))
				if len(fields) < 2 {
					anns.malformed = append(anns.malformed, Diagnostic{
						Pos:      c.Pos(),
						Message:  "simlint:ok annotation needs an analyzer name and a reason: //simlint:ok <analyzer> <reason>",
						Analyzer: "annotation",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				anns.ok = append(anns.ok, okAnn{
					analyzer: fields[0],
					line:     pos.Line,
					file:     pos.Filename,
					pos:      c.Pos(),
				})
			}
		}
	}
	return anns
}

// suppresses reports whether a well-formed //simlint:ok annotation for
// the named analyzer covers the diagnostic position, marking the
// annotation used.
func (a *annotations) suppresses(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	if !pos.IsValid() {
		return false
	}
	p := fset.Position(pos)
	hit := false
	for i := range a.ok {
		ann := &a.ok[i]
		if ann.file != p.Filename || ann.analyzer != analyzer {
			continue
		}
		if ann.line == p.Line || ann.line == p.Line-1 {
			ann.used = true
			hit = true
		}
	}
	return hit
}

// staleSuppressions reports the //simlint:ok annotations that excused
// nothing: ones naming an analyzer the suite does not have (typo, or an
// analyzer since removed), and — for analyzers that actually ran —
// annotations that suppressed no diagnostic. Both are drift: a stale
// suppression is a standing claim that unsafe code exists where none
// does, and it silently re-arms if the unsafe code comes back in a
// different spot. The nolintlint discipline, applied to simlint:ok.
func (a *annotations) staleSuppressions(ran []*Analyzer) []Diagnostic {
	inRun := map[string]bool{}
	for _, an := range ran {
		inRun[an.Name] = true
	}
	var out []Diagnostic
	for _, ann := range a.ok {
		switch {
		case ByName(ann.analyzer) == nil:
			out = append(out, Diagnostic{
				Pos:      ann.pos,
				Message:  fmt.Sprintf("simlint:ok names unknown analyzer %q; it suppresses nothing", ann.analyzer),
				Analyzer: "annotation",
			})
		case inRun[ann.analyzer] && !ann.used:
			out = append(out, Diagnostic{
				Pos:      ann.pos,
				Message:  fmt.Sprintf("stale suppression: no %s diagnostic is reported here anymore; delete the //simlint:ok", ann.analyzer),
				Analyzer: "annotation",
			})
		}
	}
	return out
}
