package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/policy"
	"besteffs/internal/server"
	"besteffs/internal/store"
)

// recoverStream returns the residents one WAL stream holds, recovered the
// way the next boot would recover them, in a scratch unit with room for
// anything. Counts and the resume clock accumulate into stats.
func recoverStream(walDir string, stats *server.RestoreStats, log *slog.Logger) ([]*object.Object, error) {
	u, err := store.New(math.MaxInt64, policy.TemporalImportance{})
	if err != nil {
		return nil, err
	}
	if err := server.RecoverStream(walDir, u, stats, log); err != nil {
		return nil, err
	}
	return u.Residents(), nil
}

// streamRoot names the top-level entry of a data dir that holds shard i's
// stream in the layout of the given shard count.
func streamRoot(shards, i int) string {
	rel := server.ShardWALDir(".", shards, i)
	root, _, _ := strings.Cut(rel, string(filepath.Separator))
	return root
}

// cmdReshard converts a stopped node's data directory to the layout of
// another shard count, offline: every stream the directory holds is
// recovered as the daemon would recover it, each resident is routed to its
// home among the new shards, and every new shard gets a fresh stream whose
// one checkpoint carries its residents and the node's resume clock. The new
// streams are built under reshard.tmp and swapped in only when complete; the
// old ones are kept under reshard.old. Payloads are shared across shards and
// never touched. While reshard.tmp exists the daemon refuses the directory,
// so an interrupted run is never half-loaded.
func cmdReshard(dataDir string, shards int, out io.Writer) error {
	if shards < 1 {
		return fmt.Errorf("reshard: shard count %d must be at least 1", shards)
	}
	found, err := server.DiscoverShards(dataDir)
	if err != nil {
		return err
	}
	if found == 0 || found == shards {
		fmt.Fprintf(out, "reshard: %s already opens at %d shard(s); nothing to do\n", dataDir, shards)
		return nil
	}
	aside := filepath.Join(dataDir, server.ReshardAsideName)
	if _, err := os.Stat(aside); !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("reshard: %s holds the streams a previous reshard replaced; remove it first", aside)
	}

	target, err := store.NewEngine(store.EngineConfig{
		Shards: shards, Capacity: math.MaxInt64, Policy: policy.TemporalImportance{},
	}, nil)
	if err != nil {
		return err
	}
	var stats server.RestoreStats
	for i := 0; i < found; i++ {
		residents, err := recoverStream(server.ShardWALDir(dataDir, found, i), &stats,
			slog.Default().With("stream", i))
		if err != nil {
			return err
		}
		for _, o := range residents {
			if err := target.Shard(target.Home(o.ID)).Restore(o); err != nil {
				return fmt.Errorf("reshard: %w", err)
			}
		}
	}

	tmp := filepath.Join(dataDir, server.ReshardTempName)
	if err := buildStreams(tmp, target, stats.Resume); err != nil {
		os.RemoveAll(tmp) // already failing with the build error; the old streams are untouched
		return err
	}

	// The swap. From the first rename to the last the directory holds no
	// consistent layout and reshard.tmp still exists, so a crash in here
	// leaves a directory the daemon refuses rather than one it half-loads.
	if err := os.Mkdir(aside, 0o755); err != nil {
		return fmt.Errorf("reshard: %w", err)
	}
	for i := 0; i < found; i++ {
		root := streamRoot(found, i)
		if err := os.Rename(filepath.Join(dataDir, root), filepath.Join(aside, root)); err != nil {
			return fmt.Errorf("reshard: set old stream aside: %w", err)
		}
	}
	for i := 0; i < shards; i++ {
		root := streamRoot(shards, i)
		if err := os.Rename(filepath.Join(tmp, root), filepath.Join(dataDir, root)); err != nil {
			return fmt.Errorf("reshard: move new stream in: %w", err)
		}
	}
	if err := os.Remove(tmp); err != nil {
		return fmt.Errorf("reshard: %w", err)
	}
	for _, dir := range []string{aside, dataDir} {
		if err := journal.SyncDir(dir); err != nil {
			return fmt.Errorf("reshard: sync %s: %w", dir, err)
		}
	}
	fmt.Fprintf(out, "reshard: %s converted from %d to %d shard stream(s), %d resident(s); old streams kept in %s\n",
		dataDir, found, shards, target.Len(), aside)
	return nil
}

// buildStreams lays down, under root, the layout of the engine's shard
// count: one WAL directory per shard holding a checkpoint of that shard's
// residents. The checkpoint covers no segment, so the next boot loads it
// and replays whatever the fresh WAL has grown since.
func buildStreams(root string, eng *store.Engine, resume time.Duration) error {
	for i := 0; i < eng.NumShards(); i++ {
		walDir := server.ShardWALDir(root, eng.NumShards(), i)
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return fmt.Errorf("reshard: %w", err)
		}
		cp := journal.Checkpoint{Resume: resume}
		for _, o := range eng.Shard(i).Residents() {
			cp.Objects = append(cp.Objects, journal.ObjectRecord(o))
		}
		if err := journal.WriteCheckpoint(walDir, cp); err != nil {
			return fmt.Errorf("reshard: shard %d: %w", i, err)
		}
		if err := journal.SyncDir(filepath.Dir(walDir)); err != nil {
			return fmt.Errorf("reshard: shard %d: %w", i, err)
		}
	}
	return nil
}
