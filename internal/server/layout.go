package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"besteffs/internal/journal"
)

// A data directory holds one WAL stream, dataDir/wal, whatever the shard
// count: every shard journals into it, and recovery routes each record to
// its ID's home shard at the count the node boots with. Payloads live
// beside it in dataDir/blobs.

// The subdirectories of a data directory: WALDirName holds the node's WAL
// segments and checkpoints, BlobDirName its payload log.
const (
	WALDirName  = "wal"
	BlobDirName = "blobs"
)

// ErrLayoutMismatch reports a data directory holding what an older layout
// wrote and this one does not read: a per-shard stream (shard-NNN/), a
// pre-WAL journal.log, or the work directory of an interrupted
// "besteffsctl reshard". Opening it anyway would leave those residents
// unread and reconcile their payloads away as orphans, so nothing is
// opened, created or deleted.
var ErrLayoutMismatch = errors.New("server: data directory layout mismatch")

// RefuseOldLayout is the one layout check: it fails with ErrLayoutMismatch,
// naming what it found, when dataDir holds an entry an older layout wrote.
// It only reads; a missing directory is fresh and passes.
func RefuseOldLayout(dataDir string) error {
	entries, err := os.ReadDir(dataDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("server: read data dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == "journal.log":
			return fmt.Errorf("%w: %s holds a pre-WAL journal.log, which is a valid first WAL segment: "+
				"mkdir %s && mv %s %s", ErrLayoutMismatch, dataDir, filepath.Join(dataDir, WALDirName),
				filepath.Join(dataDir, name), filepath.Join(dataDir, WALDirName, journal.Segments.Name(1)))
		case name == "reshard.tmp":
			return fmt.Errorf("%w: %s holds reshard.tmp, left by an interrupted \"besteffsctl reshard\" "+
				"of an older build: finish it with that build", ErrLayoutMismatch, dataDir)
		case strings.HasPrefix(name, "shard-") && e.IsDir():
			return fmt.Errorf("%w: %s holds %s/, a per-shard WAL stream of an older build: "+
				"convert it with that build's \"besteffsctl reshard %s 1\"", ErrLayoutMismatch, dataDir, name, dataDir)
		}
	}
	return nil
}

// OpenWAL opens the node's segmented WAL under dataDir, for WithWAL. It
// fails with ErrLayoutMismatch, before creating anything, when dataDir holds
// an older layout. The caller owns closing it after Serve returns.
func OpenWAL(dataDir string, opts ...journal.WALOption) (*journal.WAL, error) {
	if err := RefuseOldLayout(dataDir); err != nil {
		return nil, err
	}
	return journal.OpenWAL(filepath.Join(dataDir, WALDirName), opts...)
}

// OpenShardWALs is OpenWAL as a one-element slice, for WithWALs; bench/ only.
func OpenShardWALs(dataDir string, _ int, opts ...journal.WALOption) ([]*journal.WAL, error) {
	w, err := OpenWAL(dataDir, opts...)
	return []*journal.WAL{w}, err
}
