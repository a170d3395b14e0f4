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
//	    Suppresses diagnostics of <analyzer> on one line: at the end of
//	    a line of code it covers that line only; on a line of its own
//	    it covers the line directly below (doc-comment style). A
//	    trailing annotation on one struct field therefore never
//	    exempts the field declared on the next line.
//
// An annotation with a missing reason is itself a diagnostic: an
// unexplained exemption is exactly the kind of drift the suite exists
// to prevent.

const okPrefix = "//simlint:ok"

type okAnn struct {
	analyzer string
	line     int
	file     string
	// trailing is set when code precedes the annotation on its line.
	trailing bool
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
					trailing: codeBefore(fset, f, c),
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
		if ann.analyzer == analyzer && ann.file == p.Filename &&
			(ann.line == p.Line || !ann.trailing && ann.line == p.Line-1) {
			ann.used = true
			hit = true
		}
	}
	return hit
}

// codeBefore reports whether a token of f precedes the comment c on
// c's line. Every token is either the start or the end of some node,
// so it suffices to find a node starting or ending between the line's
// start and c, descending only into nodes that span that stretch.
func codeBefore(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	tf := fset.File(c.Pos())
	lineStart := tf.LineStart(tf.Line(c.Pos()))
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found || n.End() <= lineStart || n.Pos() >= c.Pos() {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		found = n.Pos() >= lineStart || n.End() <= c.Pos()
		return !found
	})
	return found
}

// Exempted returns the suppression rule Run applies to diagnostics, for
// tools that honour //simlint:ok outside an analyzer run: whether a
// well-formed annotation for analyzer covers a position in pkg. statefp
// leaves the checkpointcov-exempted fields out of the schema with it.
func Exempted(pkg *Package, analyzer string) func(token.Pos) bool {
	anns := collectAnnotations(pkg.Fset, pkg.Files)
	return func(pos token.Pos) bool { return anns.suppresses(pkg.Fset, pos, analyzer) }
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
