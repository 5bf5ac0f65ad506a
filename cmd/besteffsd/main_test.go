package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"besteffs/internal/server"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-policy", "bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
	if err := run([]string{"-addr", "not-an-address"}); err == nil {
		t.Error("bad address accepted")
	}
	if err := run([]string{"-max-conns", "-1"}); err == nil {
		t.Error("negative -max-conns accepted")
	}
	if err := run([]string{"-pprof"}); err == nil {
		t.Error("-pprof without -status accepted")
	}
	if err := run([]string{"-sample", "1s", "-sample-window", "0"}); err == nil {
		t.Error("zero -sample-window accepted")
	}
	if err := run([]string{"-wal-segment", "0"}); err == nil {
		t.Error("zero -wal-segment accepted")
	}
	if err := run([]string{"-wal-segment", "-4096"}); err == nil {
		t.Error("negative -wal-segment accepted")
	}
}

// TestRunRefusesMismatchedDataDir: -shards disagreeing with what -data holds
// must fail before the daemon creates, reconciles or deletes anything, and
// name the offline converter.
func TestRunRefusesMismatchedDataDir(t *testing.T) {
	dataDir := t.TempDir()
	wals, err := server.OpenShardWALs(dataDir, 4)
	if err != nil {
		t.Fatalf("OpenShardWALs: %v", err)
	}
	for _, w := range wals {
		if err := w.Close(); err != nil {
			t.Fatalf("wal close: %v", err)
		}
	}
	blob := filepath.Join(dataDir, "blobs", "000000000001.seg")
	if err := os.MkdirAll(filepath.Dir(blob), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blob, []byte("not an orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []string{"1", "2"} {
		err := run([]string{"-data", dataDir, "-shards", shards, "-addr", "127.0.0.1:0"})
		if !errors.Is(err, server.ErrLayoutMismatch) || !strings.Contains(err.Error(), "besteffsctl reshard") {
			t.Errorf("-shards %s over a 4-shard dir = %v, want ErrLayoutMismatch naming besteffsctl reshard", shards, err)
		}
		if _, err := os.Stat(blob); err != nil {
			t.Errorf("-shards %s: payload gone after the refusal: %v", shards, err)
		}
	}
}
