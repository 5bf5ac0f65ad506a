package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"besteffs/internal/blob"
	"besteffs/internal/importance"
	"besteffs/internal/journal"
	"besteffs/internal/object"
	"besteffs/internal/wire"
)

// The payload log's record framing, as internal/blob documents it: a
// 20-byte header, the ID, the payload. The damage tests below need only the
// length to aim at a record inside a segment.
func payloadRecordLen(id object.ID, payload []byte) int { return 20 + len(id) + len(payload) }

// copyTree copies a data directory.
func copyTree(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s: %v", from, err)
	}
}

// TestRestoreOverDamagedPayloadLog: a node is restored over copies of a data
// directory whose newest payload segment is cut at every byte of its last
// two records, or has one byte of a record's header flipped. It never
// panics and never serves torn bytes; it drops exactly the residents whose
// record lies at or behind the damage (DroppedNoPayload) and serves every
// other one byte for byte.
func TestRestoreOverDamagedPayloadLog(t *testing.T) {
	intact := filepath.Join(t.TempDir(), "intact")
	imp := importance.Constant{Level: 0.9}
	payloads := make(map[object.ID][]byte)
	batch := func(srv *Server, tag string) []object.ID {
		subs := make([]wire.Message, 4)
		ids := make([]object.ID, 4)
		for i := range subs {
			ids[i] = object.ID(fmt.Sprintf("%s/%d", tag, i))
			payloads[ids[i]] = bytes.Repeat([]byte{byte(len(payloads) + 1)}, 60+10*i)
			subs[i] = &wire.Put{ID: ids[i], Importance: imp, Payload: payloads[ids[i]]}
		}
		for i, r := range srv.execute(&wire.Batch{Subs: subs}).(*wire.BatchResult).Results {
			if pr, ok := r.(*wire.PutResult); !ok || !pr.Admitted {
				t.Fatalf("put %s = %+v", ids[i], r)
			}
		}
		return ids
	}
	// Two boots, so two payload segments: the damage goes into the second.
	first, err := openAndRestore(t, intact, 1)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	batch(first, "old")
	second, err := openAndRestore(t, intact, 1)
	if err != nil {
		t.Fatalf("second boot: %v", err)
	}
	tail := batch(second, "new")

	segs, err := filepath.Glob(filepath.Join(intact, "blobs", "*.seg"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("payload segments = %v, %v; want 2", segs, err)
	}
	newest := filepath.Base(segs[1])
	raw, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	var starts []int // starts[i] is where tail[i]'s record begins
	end := 0
	for _, id := range tail {
		starts = append(starts, end)
		end += payloadRecordLen(id, payloads[id])
	}
	if end != len(raw) {
		t.Fatalf("segment %s is %d bytes, its records add up to %d", newest, len(raw), end)
	}

	// restoreOver boots a node over a damaged copy and checks that exactly
	// the records of lost are gone.
	restoreOver := func(what string, damage func(path string), lost []object.ID) {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "damaged")
		copyTree(t, intact, dir)
		damage(filepath.Join(dir, "blobs", newest))
		srv, err := openAndRestore(t, dir, 1)
		if err != nil {
			t.Fatalf("%s: restore: %v", what, err)
		}
		if got := srv.lastRestore.DroppedNoPayload; got != len(lost) {
			t.Errorf("%s: DroppedNoPayload = %d, want %d", what, got, len(lost))
		}
		gone := make(map[object.ID]bool)
		for _, id := range lost {
			gone[id] = true
		}
		for id, want := range payloads {
			res := srv.execute(&wire.Get{ID: id})
			if gone[id] {
				if e, ok := res.(*wire.ErrorMsg); !ok || e.Code != wire.CodeNotFound {
					t.Errorf("%s: get %s, whose record was lost = %+v, want not found", what, id, res)
				}
				continue
			}
			if got, ok := res.(*wire.ObjectMsg); !ok || !bytes.Equal(got.Payload, want) {
				t.Errorf("%s: get %s, whose record is intact = %+v", what, id, res)
			}
		}
	}

	for cut := starts[2]; cut < len(raw); cut++ {
		lost := tail[3:]
		if cut < starts[3] {
			lost = tail[2:]
		}
		restoreOver(fmt.Sprintf("cut at %d", cut), func(path string) {
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}
		}, lost)
	}
	for at := starts[1]; at < starts[1]+20+len(tail[1]); at++ {
		restoreOver(fmt.Sprintf("header byte %d flipped", at), func(path string) {
			damaged := bytes.Clone(raw)
			damaged[at] ^= 0x10
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
		}, tail[1:])
	}
}

// refusingStore is a payload store whose group commit can be made to fail.
type refusingStore struct {
	blob.Store
	refuse error
}

func (r *refusingStore) PutBatch(ids []object.ID, payloads [][]byte) error {
	if r.refuse != nil {
		return r.refuse
	}
	return r.Store.PutBatch(ids, payloads)
}

// TestFailedGroupCommitAdmitsNone: when the payload store refuses a shard
// group, none of the group's admitted members is resident, readable or
// journaled; members that were never admitted keep their own verdict; and
// the node goes on serving.
func TestFailedGroupCommitAdmitsNone(t *testing.T) {
	dir := t.TempDir()
	wal, err := journal.OpenWAL(filepath.Join(dir, WALDirName))
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	payloadStore := &refusingStore{Store: blob.NewMemStore()}
	srv := newBatchTestServer(t, 1<<20, WithWAL(wal), WithBlobStore(payloadStore))
	imp := importance.Constant{Level: 0.5}
	if res, ok := srv.execute(&wire.Put{ID: "resident", Importance: imp, Payload: []byte("before")}).(*wire.PutResult); !ok || !res.Admitted {
		t.Fatalf("single put = %+v", res)
	}

	group := &wire.Batch{Subs: []wire.Message{
		&wire.Put{ID: "g/1", Importance: imp, Payload: []byte("one")},
		&wire.Put{ID: "resident", Importance: imp, Payload: []byte("a duplicate")},
		&wire.Put{ID: "g/2", Importance: imp, Payload: []byte("two")},
	}}
	payloadStore.refuse = errors.New("disk on fire")
	results := srv.execute(group).(*wire.BatchResult).Results
	for _, i := range []int{0, 2} {
		if e, ok := results[i].(*wire.ErrorMsg); !ok || e.Code != wire.CodeInternal || !strings.Contains(e.Text, "disk on fire") {
			t.Errorf("sub %d of the refused group = %+v, want the store's error", i, results[i])
		}
	}
	if e, ok := results[1].(*wire.ErrorMsg); !ok || e.Code != wire.CodeDuplicate {
		t.Errorf("duplicate sub of the refused group = %+v, want its own duplicate verdict", results[1])
	}
	if srv.engine.Len() != 1 {
		t.Errorf("%d residents after the refused group, want the one from before", srv.engine.Len())
	}
	for _, id := range []object.ID{"g/1", "g/2"} {
		if e, ok := srv.execute(&wire.Get{ID: id}).(*wire.ErrorMsg); !ok || e.Code != wire.CodeNotFound {
			t.Errorf("get %s after the refused group = %+v", id, e)
		}
	}

	// The same group goes through once the store takes it.
	payloadStore.refuse = nil
	results = srv.execute(group).(*wire.BatchResult).Results
	for _, i := range []int{0, 2} {
		if res, ok := results[i].(*wire.PutResult); !ok || !res.Admitted {
			t.Errorf("sub %d of the retried group = %+v", i, results[i])
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var puts []object.ID
	if _, err := journal.ReplayWAL(filepath.Join(dir, WALDirName), 0, func(r journal.Record) error {
		if r.Kind == journal.KindPut {
			puts = append(puts, r.ID)
		}
		return nil
	}); err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if fmt.Sprint(puts) != "[resident g/1 g/2]" {
		t.Errorf("journaled puts = %v, want resident and one record each for g/1 and g/2", puts)
	}
}

// TestPayloadLogMetrics: a node over a file store reports the log's space
// accounting on /metrics and in the status JSON, from one snapshot; a node
// over the in-memory store reports neither.
func TestPayloadLogMetrics(t *testing.T) {
	srv, err := openAndRestore(t, t.TempDir(), 1)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	imp := importance.Constant{Level: 0.5}
	srv.execute(&wire.Batch{Subs: []wire.Message{
		&wire.Put{ID: "a", Importance: imp, Payload: make([]byte, 100)},
		&wire.Put{ID: "b", Importance: imp, Payload: make([]byte, 200)},
	}})
	srv.execute(&wire.Delete{ID: "a"})
	live := payloadRecordLen("b", make([]byte, 200))
	disk := live + payloadRecordLen("a", make([]byte, 100))

	text := scrape(t, srv.MetricsHandler())
	for _, want := range []string{
		"# TYPE besteffs_blob_segments gauge",
		"besteffs_blob_segments 1\n",
		fmt.Sprintf("besteffs_blob_live_bytes %d\n", live),
		fmt.Sprintf("besteffs_blob_disk_bytes %d\n", disk),
		"# TYPE besteffs_blob_cleaned_bytes_total counter",
		"besteffs_blob_cleaned_bytes_total 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	raw, err := json.Marshal(srv.StatusSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`"blob":{"segments":1,"live_bytes":%d,"disk_bytes":%d,"cleaned_bytes":0}`, live, disk)
	if !strings.Contains(string(raw), want) {
		t.Errorf("status JSON lacks %s:\n%s", want, raw)
	}

	mem := newBatchTestServer(t, 1<<20)
	if text := scrape(t, mem.MetricsHandler()); strings.Contains(text, "besteffs_blob_") {
		t.Error("an in-memory node reports payload log series")
	}
	if mem.StatusSnapshot().Blob != nil {
		t.Error("an in-memory node reports payload log status")
	}
}
