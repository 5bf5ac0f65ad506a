package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted expectations from a "// want" comment.
var wantRe = regexp.MustCompile(`"([^"]*)"`)

// fixtureKey addresses one fixture source line.
type fixtureKey struct {
	file string // base name
	line int
}

// collectWants gathers the `// want "substring" ...` expectations from the
// fixture sources: each quoted string must be contained in one diagnostic
// ("check: message") reported on that line.
func collectWants(pkgs []*Package) map[fixtureKey][]string {
	wants := make(map[fixtureKey][]string)
	for _, pkg := range pkgs {
		if pkg.Standard {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					k := fixtureKey{filepath.Base(pos.Filename), pos.Line}
					for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
						wants[k] = append(wants[k], m[1])
					}
				}
			}
		}
	}
	return wants
}

// TestAnalyzersOnFixtures type-checks the fixture module under testdata/src
// and requires the diagnostic set to match the `// want` comments exactly:
// every expectation produced, nothing extra produced, suppressions honored.
// Each analyzer must fire at least once, so every check keeps a failing
// fixture case alongside its passing ones.
func TestAnalyzersOnFixtures(t *testing.T) {
	pkgs, err := Load("testdata/src", "./...")
	if err != nil {
		t.Fatalf("Load(testdata/src): %v", err)
	}
	diags := Run(pkgs)
	wants := collectWants(pkgs)
	if len(wants) == 0 {
		t.Fatal("no // want expectations found in fixtures")
	}

	matched := make(map[fixtureKey][]bool)
	for k, ws := range wants {
		matched[k] = make([]bool, len(ws))
	}
	byCheck := make(map[string]int)
	directives := 0
	for _, d := range diags {
		byCheck[d.Check]++
		if d.Check == "lintdirective" {
			directives++
			if base := filepath.Base(d.Pos.Filename); base != "consumer.go" {
				t.Errorf("lintdirective finding outside consumer.go: %s", d)
			}
			continue
		}
		k := fixtureKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		rendered := d.Check + ": " + d.Message
		found := false
		for i, w := range wants[k] {
			if !matched[k][i] && strings.Contains(rendered, w) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	// consumer.go carries exactly three directive findings -- the bare
	// (reason-less) //lint:ignore, the stale one, and the unknown-check
	// one. Their wants cannot be written as trailing comments (the
	// directive would swallow them as the reason), so they are asserted
	// here instead.
	if directives != 3 {
		t.Errorf("lintdirective findings = %d, want exactly 3 (consumer.go's bare, stale, and unknown-check directives)", directives)
	}
	for k, ws := range wants {
		for i, w := range ws {
			if !matched[k][i] {
				t.Errorf("missing diagnostic at %s:%d matching %q", k.file, k.line, w)
			}
		}
	}
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
		if byCheck[a.Name] == 0 {
			t.Errorf("analyzer %s produced no findings on the fixtures; its failing case is gone", a.Name)
		}
	}
	// The suite is the checks no test can replace; a fifth needs that argument.
	if want := "nondeterminism uncheckederr lockorder goroutinelifecycle"; strings.Join(names, " ") != want {
		t.Errorf("Analyzers() = %v, want %s", names, want)
	}
}
