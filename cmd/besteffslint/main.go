// Command besteffslint runs the project's static-analysis suite (see
// internal/lint) over the repository:
//
//	go run ./cmd/besteffslint ./...
//
// Each finding prints as file:line:col: check: message. The one flag is
//
//	-C dir           change to dir before resolving package patterns
//
// Findings are suppressed in source with "//lint:ignore <check> <reason>"
// on (or directly above) the offending line; the reason is mandatory.
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"besteffs/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("besteffslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chdir := fs.String("C", ".", "directory to resolve package patterns in")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pkgs, err := lint.Load(*chdir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := lint.Run(pkgs)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "besteffslint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
