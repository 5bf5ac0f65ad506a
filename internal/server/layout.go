package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"besteffs/internal/journal"
)

// A data directory has one layout per shard count, and a node only ever
// opens the layout of the count it was started with: one WAL stream in
// dataDir/wal for a single shard, dataDir/shard-NNN/wal per shard otherwise.
// DiscoverShards is the only code that reads a layout back off the disk;
// converting between counts is the offline "besteffsctl reshard".

// WALDirName is the subdirectory holding one WAL stream's segments and
// checkpoints.
const WALDirName = "wal"

// The subdirectories "besteffsctl reshard" works in: the new streams are
// built under ReshardTempName, which exists only while a reshard runs (so
// finding it means one was interrupted), and the streams it replaced are
// kept under ReshardAsideName.
const (
	ReshardTempName  = "reshard.tmp"
	ReshardAsideName = "reshard.old"
)

// ErrLayoutMismatch reports a data directory that does not hold the layout
// of the requested shard count, or holds no consistent layout at all.
// Opening it anyway would leave residents unreachable and reconcile their
// payloads away as orphans, so nothing is opened, created or deleted.
var ErrLayoutMismatch = errors.New("server: data directory layout mismatch")

// ShardDirName returns the data-dir subdirectory owning shard i's state on
// a node of more than one shard ("shard-000", "shard-001", ...).
func ShardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// ShardWALDir returns the WAL directory for shard i of a node with the
// given shard count.
func ShardWALDir(dataDir string, shards, i int) string {
	if shards <= 1 {
		return filepath.Join(dataDir, WALDirName)
	}
	return filepath.Join(dataDir, ShardDirName(i), WALDirName)
}

// DiscoverShards reports how many shard WAL streams dataDir holds: 0 for a
// fresh or missing directory, 1 for wal/, K for shard-000 ... shard-(K-1).
// Anything else -- both layouts at once, a gap in the shard numbering, a
// pre-WAL journal.log, the leftovers of an interrupted reshard -- is an
// ErrLayoutMismatch. ShardWALDir(dataDir, K, i) names the discovered streams.
func DiscoverShards(dataDir string) (int, error) {
	entries, err := os.ReadDir(dataDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("server: read data dir: %w", err)
	}
	unsharded := false
	sharded := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == "journal.log":
			return 0, fmt.Errorf("%w: %s holds a pre-WAL journal.log, which is a valid first WAL segment: "+
				"mkdir %s && mv %s %s", ErrLayoutMismatch, dataDir, filepath.Join(dataDir, WALDirName),
				filepath.Join(dataDir, name), filepath.Join(dataDir, WALDirName, "000000000001.seg"))
		case name == ReshardTempName:
			return 0, fmt.Errorf("%w: %s holds %s, left by an interrupted \"besteffsctl reshard\": "+
				"move anything under %s back, remove %s and run reshard again",
				ErrLayoutMismatch, dataDir, name, ReshardAsideName, name)
		case name == WALDirName && e.IsDir():
			unsharded = true
		case strings.HasPrefix(name, "shard-") && e.IsDir():
			sharded[name] = true
		}
	}
	if unsharded && len(sharded) > 0 {
		return 0, fmt.Errorf("%w: %s holds both %s/ and %d shard-NNN/ streams",
			ErrLayoutMismatch, dataDir, WALDirName, len(sharded))
	}
	if unsharded {
		return 1, nil
	}
	for i := range len(sharded) {
		if !sharded[ShardDirName(i)] {
			return 0, fmt.Errorf("%w: %s holds %d shard directories that are not shard-000 ... %s",
				ErrLayoutMismatch, dataDir, len(sharded), ShardDirName(len(sharded)-1))
		}
	}
	return len(sharded), nil
}

// checkLayout refuses a data directory whose discovered shard count is not
// the requested one. A fresh directory matches every count.
func checkLayout(dataDir string, shards int) error {
	found, err := DiscoverShards(dataDir)
	if err != nil {
		return err
	}
	if found != 0 && found != shards {
		return fmt.Errorf("%w: %s holds %d shard stream(s) but %d were requested; "+
			"run \"besteffsctl reshard %s %d\" first", ErrLayoutMismatch, dataDir, found, shards, dataDir, shards)
	}
	return nil
}

// OpenShardWALs opens one segmented WAL per shard under dataDir, in shard
// order, laid out per ShardWALDir. It fails with ErrLayoutMismatch, before
// creating anything, unless dataDir is fresh or already holds exactly this
// layout. The returned slice feeds WithWALs; the caller owns closing them
// after Serve returns.
func OpenShardWALs(dataDir string, shards int, opts ...journal.WALOption) ([]*journal.WAL, error) {
	if shards <= 0 {
		shards = 1
	}
	if err := checkLayout(dataDir, shards); err != nil {
		return nil, err
	}
	wals := make([]*journal.WAL, shards)
	for i := range wals {
		w, err := journal.OpenWAL(ShardWALDir(dataDir, shards, i), opts...)
		if err != nil {
			for _, open := range wals[:i] {
				//lint:ignore uncheckederr already aborting with the open error; nothing was appended yet
				open.Close()
			}
			return nil, fmt.Errorf("server: open shard %d wal: %w", i, err)
		}
		wals[i] = w
	}
	return wals, nil
}
