package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// An ignore directive:
//
//	//lint:ignore <check> <reason>
//
// suppresses <check>'s diagnostics on the directive's own line and, when
// the comment stands alone on its line, on the line directly below it --
// mirroring how such comments are written (above the offending statement
// or trailing it). The reason is mandatory and shows up in `git blame`
// forever, which is the point: every suppression documents why the
// invariant deliberately does not hold there.
type ignoreDirective struct {
	file  string
	line  int // line of the directive itself
	check string
	pos   token.Position
	used  bool // suppressed at least one finding this Run
}

// ignoresFor collects the package's well-formed ignore directives.
func ignoresFor(pkg *Package) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check, reason, ok := parseIgnore(c.Text)
				if !ok || check == "" || reason == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, ignoreDirective{file: pos.Filename, line: pos.Line, check: check, pos: pos})
			}
		}
	}
	return out
}

// ignoreErrors reports malformed directives: a lint:ignore without both a
// check name and a reason is itself a finding, so suppressions cannot rot
// into bare //lint:ignore stamps.
func ignoreErrors(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check, reason, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				if check == "" || reason == "" {
					out = append(out, Diagnostic{
						Pos:     pkg.Fset.Position(c.Pos()),
						Check:   "lintdirective",
						Message: "malformed //lint:ignore: want \"//lint:ignore <check> <reason>\"",
					})
				}
			}
		}
	}
	return out
}

// parseIgnore splits a comment into its directive parts; ok reports
// whether the comment is a lint:ignore directive at all.
func parseIgnore(text string) (check, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, "//lint:ignore")
	if !found {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", true
	}
	return fields[0], strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])), true
}

// ignoreKey addresses one suppressible (file, line, check) slot.
type ignoreKey struct {
	file  string
	line  int
	check string
}

// filterIgnored drops diagnostics covered by an ignore directive and
// reports directive rot: a well-formed directive that names an unknown
// check, or one that suppressed nothing, is itself a lintdirective finding
// -- dead suppressions are the fastest way for a lint suite to quietly stop
// meaning anything.
func filterIgnored(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	known := map[string]bool{"lintdirective": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	var all []*ignoreDirective
	covered := make(map[ignoreKey]*ignoreDirective)
	for _, pkg := range pkgs {
		if pkg.Standard {
			continue
		}
		for _, ig := range ignoresFor(pkg) {
			ig := ig
			all = append(all, &ig)
			covered[ignoreKey{ig.file, ig.line, ig.check}] = &ig
			covered[ignoreKey{ig.file, ig.line + 1, ig.check}] = &ig
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if ig := covered[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Check}]; ig != nil {
			ig.used = true
			continue
		}
		kept = append(kept, d)
	}

	for _, ig := range all {
		var msg string
		switch {
		case !known[ig.check]:
			msg = fmt.Sprintf("//lint:ignore names unknown check %q", ig.check)
		case !ig.used && ig.check != "lintdirective":
			msg = fmt.Sprintf("stale //lint:ignore %s: no %s finding is suppressed here", ig.check, ig.check)
		default:
			continue
		}
		d := Diagnostic{Pos: ig.pos, Check: "lintdirective", Message: msg}
		// A stale-directive finding is itself suppressible, so deliberate
		// keep-alives (an ignore guarding a flaky environment-dependent
		// finding) stay possible -- with a reason, like everything else.
		if ig2 := covered[ignoreKey{d.Pos.Filename, d.Pos.Line, "lintdirective"}]; ig2 != nil {
			ig2.used = true
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// position is a small helper for analyzers that report at a file's start.
func filePos(pkg *Package, idx int) token.Pos {
	if idx < len(pkg.Files) {
		return pkg.Files[idx].Package
	}
	return token.NoPos
}
