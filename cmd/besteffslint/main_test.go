package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// fixtureDir is the lint package's fixture module, which contains one
// deliberate violation per analyzer.
const fixtureDir = "../../internal/lint/testdata/src"

func TestRunExitCodes(t *testing.T) {
	// 2: a flag the command does not have, and a pattern that does not load.
	if got := run([]string{"-checks", "lockorder", "./..."}, io.Discard, io.Discard); got != 2 {
		t.Errorf("run(-checks lockorder) = %d, want 2", got)
	}
	if got := run([]string{"-C", fixtureDir, "./internal/nosuchpkg/"}, io.Discard, io.Discard); got != 2 {
		t.Errorf("run over a missing package = %d, want 2", got)
	}
	// 1: findings, one line each on stdout.
	var out bytes.Buffer
	if got := run([]string{"-C", fixtureDir, "./..."}, &out, io.Discard); got != 1 {
		t.Errorf("run over violation fixtures = %d, want 1", got)
	}
	if !strings.Contains(out.String(), "lockpair.go:25:2: lockorder: lock-order cycle") {
		t.Errorf("findings lack the lockpair cycle in file:line:col form:\n%s", out.String())
	}
	// 0: the callgraph fixture packages violate no check.
	if got := run([]string{"-C", fixtureDir, "./internal/hot/", "./internal/hotdep/"}, io.Discard, io.Discard); got != 0 {
		t.Errorf("run over clean fixture packages = %d, want 0", got)
	}
}
