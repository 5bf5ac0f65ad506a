package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is recorded in every output so that two result files taken
// under different conditions can be refused as incomparable.
type environment struct {
	NProc          int    `json:"nproc"`
	GeneratorProcs int    `json:"generator_gomaxprocs"`
	DaemonProcs    int    `json:"daemon_gomaxprocs"`
	GeneratorCPUs  []int  `json:"generator_cpus"`
	DaemonCPUs     []int  `json:"daemon_cpus"`
	GoVersion      string `json:"go_version"`
	Kernel         string `json:"kernel"`
	DataFS         string `json:"data_fs"`
	Commit         string `json:"commit"`
}

// generatorProcs gives the load generator one P: with one goroutine per
// connection and at most two connections it never needs more.
const generatorProcs = 1

// readEnvironment gathers the block. The daemon gets one P per CPU it is
// pinned to: every core but one.
func readEnvironment(root, dataFS string, genCPUs, daemonCPUs []int) environment {
	return environment{
		NProc:          runtime.NumCPU(),
		GeneratorProcs: generatorProcs,
		DaemonProcs:    len(daemonCPUs),
		GeneratorCPUs:  genCPUs,
		DaemonCPUs:     daemonCPUs,
		GoVersion:      runtime.Version(),
		Kernel:         firstLine("/proc/sys/kernel/osrelease"),
		DataFS:         dataFS,
		Commit:         commitOf(root),
	}
}

// firstLine returns the first line of a file, "unknown" if unreadable.
func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// commitOf names the commit under test; a checkout without git history (the
// acceptance driver's) reports "unknown".
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
