package blob

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"besteffs/internal/object"
)

func TestMemStore(t *testing.T) {
	storeContract(t, memContract)
}

func TestFileStore(t *testing.T) {
	storeContract(t, fileContract)
}

func TestMemStoreCopiesPayloads(t *testing.T) {
	s := NewMemStore()
	payload := []byte("abc")
	if err := s.Put("x", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	payload[0] = 'z' // must not alias into the store
	got, err := s.Get("x")
	if err != nil || got[0] != 'a' {
		t.Errorf("store aliased caller slice: %q, %v", got, err)
	}
	got[1] = 'z' // must not alias out of the store
	again, err := s.Get("x")
	if err != nil || again[1] != 'b' {
		t.Errorf("store leaked internal slice: %q, %v", again, err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// storedBuffer returns the buffer s holds id's payload in.
func storedBuffer(t *testing.T, s *MemStore, id object.ID) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(id)
	if e == nil {
		t.Fatalf("%s is not stored", id)
	}
	return e.payload
}

// checkEntries verifies the MemStore's index: the index and the dense slice
// hold the same entries, every entry's ID is found at the position it sits
// in, and the index's table is at most eight slots per entry past its
// minimum.
func checkEntries(t *testing.T, s *MemStore) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) != s.index.Len() {
		t.Fatalf("%d entries, %d in the ID index", len(s.entries), s.index.Len())
	}
	if n := s.index.Slots(); n > 8 && n > 8*len(s.entries) {
		t.Fatalf("the ID index has %d slots for %d entries", n, len(s.entries))
	}
	for i, e := range s.entries {
		if at, ok := s.index.Find(e.id, s.idAtLocked); !ok || at != i {
			t.Fatalf("entries[%d] = %s, found at %d (present %t)", i, e.id, at, ok)
		}
	}
}

// TestMemStoreIndexStaysAtLiveSize: first-in-first-out churn of 64 times the
// live count -- each step deletes the 64 oldest payloads and puts 64 new
// ones in one PutBatch, as an admission's commit does -- leaves the index at
// most four slots per entry, the size the fill made it, and every entry
// where the index says.
func TestMemStoreIndexStaysAtLiveSize(t *testing.T) {
	const live, group = 1024, 64
	s := NewMemStore()
	payload := make([]byte, 128)
	ids := make([]object.ID, group)
	payloads := make([][]byte, group)
	next, oldest := 0, 0
	put := func() {
		for i := range ids {
			ids[i], payloads[i] = object.ID(fmt.Sprint(next)), payload
			next++
		}
		if err := s.PutBatch(ids, payloads); err != nil {
			t.Fatal(err)
		}
	}
	for range live / group {
		put()
	}
	filled := s.index.Slots()
	for range 64 * live / group {
		for range group {
			if err := s.Delete(object.ID(fmt.Sprint(oldest))); err != nil {
				t.Fatal(err)
			}
			oldest++
		}
		put()
	}
	checkEntries(t, s)
	if s.Len() != live {
		t.Fatalf("Len = %d after churn, want %d", s.Len(), live)
	}
	if got := s.index.Slots(); got > 4*live || got != filled {
		t.Fatalf("the ID index has %d slots for %d entries after churn, %d after the fill", got, live, filled)
	}
	for _, id := range []object.ID{object.ID(fmt.Sprint(oldest)), object.ID(fmt.Sprint(next - 1))} {
		if got, err := s.Get(id); err != nil || len(got) != len(payload) {
			t.Errorf("Get(%s) = %d bytes, %v", id, len(got), err)
		}
	}
	if _, err := s.Get(object.ID(fmt.Sprint(oldest - 1))); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of a deleted ID = %v, want ErrNotFound", err)
	}
}

// TestMemStoreReusesDeletedBuffers: a put after deletes copies its payload
// into a deleted entry's buffer, as an arrival takes its victim's. A Get
// result held across the reuse keeps its bytes, the deleted ID is not found
// and never serves the new bytes, and a buffer is reused only when it fits
// the payload within twice its length.
func TestMemStoreReusesDeletedBuffers(t *testing.T) {
	s := NewMemStore()
	victim := bytes.Repeat([]byte("v"), 1024)
	if err := s.PutBatch([]object.ID{"victim", "small"}, [][]byte{victim, []byte("tiny")}); err != nil {
		t.Fatal(err)
	}
	held, err := s.Get("victim")
	if err != nil {
		t.Fatal(err)
	}
	buf := storedBuffer(t, s, "victim")
	for _, id := range []object.ID{"victim", "small"} {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	arrival := bytes.Repeat([]byte("a"), 1000)
	if err := s.PutBatch([]object.ID{"arrival", "big"}, [][]byte{arrival, make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	if got := storedBuffer(t, s, "arrival"); &got[0] != &buf[0] {
		t.Error("the arrival did not reuse the deleted 1024-byte buffer")
	}
	if got := storedBuffer(t, s, "big"); cap(got) < 4096 || &got[0] == &buf[0] {
		t.Error("a 4096-byte payload went into a buffer that cannot hold it")
	}
	if !bytes.Equal(held, victim) {
		t.Error("a Get result changed when its entry's buffer was reused")
	}
	if _, err := s.Get("victim"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of the deleted ID = %v, want ErrNotFound", err)
	}
	if got, err := s.Get("arrival"); err != nil || !bytes.Equal(got, arrival) {
		t.Errorf("Get of the arrival = %q, %v", got, err)
	}
	if len(s.freed) != 0 || s.freedBytes != 0 {
		t.Errorf("the put kept %d deleted entries (%d bytes) it did not reuse", len(s.freed), s.freedBytes)
	}

	// A buffer more than twice the payload is not reused: the small
	// payload would pin the large buffer.
	if err := s.Delete("big"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("one-k", victim); err != nil {
		t.Fatal(err)
	}
	if cap(storedBuffer(t, s, "one-k")) >= 4096 {
		t.Error("a 1024-byte payload reused a 4096-byte buffer")
	}
}

// TestMemStoreBoundsDeletedBuffers: deletes with no put in between keep at
// most maxIdleBuffer bytes of buffers for reuse, and what is kept still
// serves no deleted ID.
func TestMemStoreBoundsDeletedBuffers(t *testing.T) {
	s := NewMemStore()
	payload := make([]byte, 4096)
	const n = 1024 // 4 MiB stored, then deleted
	for i := range n {
		if err := s.Put(object.ID(fmt.Sprint(i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := range n {
		if err := s.Delete(object.ID(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for _, b := range s.freed {
		held += cap(b)
	}
	if held > maxIdleBuffer || held != s.freedBytes {
		t.Errorf("deleted entries hold %d bytes (counted %d), bound %d", held, s.freedBytes, maxIdleBuffer)
	}
	if held == 0 {
		t.Error("no deleted buffer was kept for reuse")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after deleting everything", s.Len())
	}
	if _, err := s.Get("0"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of a deleted ID = %v, want ErrNotFound", err)
	}
}

// TestMemStoreReuseConcurrent: writers that put, read back and delete
// their own IDs at once, so every put may take a buffer another writer's
// delete freed, each read back only their own bytes.
func TestMemStoreReuseConcurrent(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := bytes.Repeat([]byte{byte('a' + w)}, 512+w)
			for i := range 300 {
				id := object.ID(fmt.Sprintf("w%d/%d", w, i))
				if err := s.PutBatch([]object.ID{id}, [][]byte{mine}); err != nil {
					t.Error(err)
					return
				}
				if got, err := s.Get(id); err != nil || !bytes.Equal(got, mine) {
					t.Errorf("writer %d read back %d bytes starting %q, %v", w, len(got), got[:min(len(got), 1)], err)
					return
				}
				if err := s.Delete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkEntries(t, s)
}

func TestFileStoreFilesStayUnderRoot(t *testing.T) {
	root := t.TempDir()
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.Put("../escape", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Nothing outside the root.
	parent := filepath.Dir(root)
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if e.Name() == "escape" {
			t.Fatal("payload escaped the root directory")
		}
	}
	// Exactly one segment inside, and nothing else.
	if names := dirNames(t, root); len(names) != 1 || names[0] != segName(1) {
		t.Errorf("root holds %q, want one segment", names)
	}
}

// dirNames lists a directory, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	root := t.TempDir()
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.Put("survivor", []byte("data")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	reopened, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { reopened.Close() })
	got, err := reopened.Get("survivor")
	if err != nil || string(got) != "data" {
		t.Errorf("after reopen: %q, %v", got, err)
	}
	ids, err := reopened.IDs()
	if err != nil || len(ids) != 1 || ids[0] != "survivor" {
		t.Errorf("IDs = %v, %v", ids, err)
	}
}

// TestFileStoreClose: Close releases every segment, refuses what comes after
// it, and leaves a log that a reopen serves byte for byte.
func TestFileStoreClose(t *testing.T) {
	root := t.TempDir()
	s := openLog(t, root, 4<<10) // small segments, so there are several to close
	want := make(map[object.ID][]byte)
	for i := 0; i < 24; i++ {
		id := object.ID(fmt.Sprintf("obj-%02d", i))
		want[id] = patterned(string(id), 300+i)
		if err := s.Put(id, want[id]); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	if segs := s.Stats().Segments; segs < 2 {
		t.Fatalf("%d segments; the test needs several", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Put("late", []byte("x")); err == nil {
		t.Error("Put after Close succeeded")
	}
	if _, err := s.Get("obj-00"); err == nil {
		t.Error("Get after Close succeeded")
	}
	if err := s.Close(); err == nil {
		t.Error("a second Close succeeded")
	}
	reopened, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { reopened.Close() })
	for id, p := range want {
		if got, err := reopened.Get(id); err != nil || !bytes.Equal(got, p) {
			t.Errorf("after Close and reopen, %s = %d bytes, %v; want its %d bytes", id, len(got), err, len(p))
		}
	}
	if _, err := reopened.Get("late"); !errors.Is(err, ErrNotFound) {
		t.Errorf("the refused Put left %q behind: %v", "late", err)
	}
}

func TestFileStoreIDsIgnoresForeignFiles(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"notes.txt", "7.seg", "00000000000x.seg", "000000000000.seg"} {
		if err := os.WriteFile(filepath.Join(root, name), []byte("x"), 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	if err := os.Mkdir(filepath.Join(root, segName(3)), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("NewFileStore over foreign files: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	ids, err := s.IDs()
	if err != nil || len(ids) != 0 {
		t.Errorf("IDs = %v, %v; want empty", ids, err)
	}
	if st := s.Stats(); st.Segments != 0 || st.DiskBytes != 0 {
		t.Errorf("foreign files counted as segments: %+v", st)
	}
}

func TestFileStoreConcurrent(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	// Small segments, so rotation, unlinking and the cleaner all run under
	// the readers' feet.
	s.segBytes = 2 << 10
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				id := object.ID(fmt.Sprintf("w%d/o%d", w, i))
				want := patterned(string(id), 100+i)
				if err := s.Put(id, want); err != nil {
					t.Error(err)
					return
				}
				if got, err := s.Get(id); err != nil || !bytes.Equal(got, want) {
					t.Errorf("Get %s = %d bytes, %v", id, len(got), err)
					return
				}
				// Keep every tenth object for good: the survivors are what
				// the cleaner has to carry past the churn.
				if i%10 != 0 {
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		for i := 0; i < 120; i += 10 {
			id := object.ID(fmt.Sprintf("w%d/o%d", w, i))
			if got, err := s.Get(id); err != nil || !bytes.Equal(got, patterned(string(id), 100+i)) {
				t.Errorf("survivor %s = %d bytes, %v", id, len(got), err)
			}
		}
	}
	if s.Stats().CleanedBytes == 0 {
		t.Error("the cleaner never ran: the test no longer covers reads racing it")
	}
}

func TestFileStoreDetectsCorruption(t *testing.T) {
	root := t.TempDir()
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	payload := patterned("precious", 200)
	if err := s.Put("victim", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Flip one payload bit inside the segment.
	flipStoredByte(t, root, payload)
	if _, err := s.Get("victim"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get bit-flipped payload err = %v, want ErrCorrupt", err)
	}
	flipStoredByte(t, root, flipMiddle(payload)) // restore it
	if _, err := s.Get("victim"); err != nil {
		t.Fatalf("Get after restoring the byte: %v", err)
	}
	// A flip in the recorded checksum itself: the open store still holds the
	// sum it computed at Put, but a reopened one reads a header that no
	// longer verifies and does not index the record at all.
	path := filepath.Join(root, segName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	raw[13] ^= 0x80 // inside the payload CRC field
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	reopened, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { reopened.Close() })
	if b, err := reopened.Get("victim"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get with a flipped CRC field = %d bytes, %v; want ErrNotFound", len(b), err)
	}
}

// flipMiddle returns payload as flipStoredByte leaves it on disk.
func flipMiddle(payload []byte) []byte {
	b := bytes.Clone(payload)
	b[len(b)/2] ^= 0x01
	return b
}

// TestFileStoreRefusesObjLayout: a directory of the file-per-object layout
// is refused outright -- one on-disk layout, no migration -- and left as it
// was.
func TestFileStoreRefusesObjLayout(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "6f6c64.obj"), []byte("legacy payload"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := NewFileStore(root); err == nil || !strings.Contains(err.Error(), "6f6c64.obj") {
		t.Errorf("NewFileStore over an .obj file = %v, want a refusal naming it", err)
	}
	if names := dirNames(t, root); len(names) != 1 {
		t.Errorf("the refused directory now holds %q", names)
	}
}

// verifierTests exercises the Verify contract against any implementation:
// intact payloads verify, missing ones report ErrNotFound, and Verify does
// not disturb the stored bytes.
func verifierTests(t *testing.T, s Store) {
	t.Helper()
	if err := s.Verify("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Verify missing err = %v, want ErrNotFound", err)
	}
	if err := s.Put("ok", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Verify("ok"); err != nil {
		t.Errorf("Verify intact payload: %v", err)
	}
	if got, err := s.Get("ok"); err != nil || string(got) != "payload" {
		t.Errorf("Get after Verify = %q, %v", got, err)
	}
}

func TestMemStoreVerify(t *testing.T) {
	s := NewMemStore()
	verifierTests(t, s)
	if err := s.Corrupt("ok"); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	if err := s.Verify("ok"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Verify corrupted payload err = %v, want ErrCorrupt", err)
	}
	if err := s.Corrupt("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Corrupt missing err = %v, want ErrNotFound", err)
	}
}

func TestFileStoreVerify(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	verifierTests(t, s)
	// Flip one payload byte on disk: Verify must report ErrCorrupt.
	flipStoredByte(t, s.Root(), []byte("payload"))
	if err := s.Verify("ok"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Verify bit-flipped payload err = %v, want ErrCorrupt", err)
	}
}

func TestMemStoreDetectsCorruption(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("victim", []byte("precious")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Corrupt("victim"); err != nil { // simulated in-memory bit flip
		t.Fatalf("Corrupt: %v", err)
	}
	if _, err := s.Get("victim"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get corrupted payload err = %v, want ErrCorrupt", err)
	}
}
