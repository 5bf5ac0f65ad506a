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

func TestFileStoreFilesStayUnderRoot(t *testing.T) {
	root := t.TempDir()
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
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
	if err := s.Put("survivor", []byte("data")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	reopened, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := reopened.Get("survivor")
	if err != nil || string(got) != "data" {
		t.Errorf("after reopen: %q, %v", got, err)
	}
	ids, err := reopened.IDs()
	if err != nil || len(ids) != 1 || ids[0] != "survivor" {
		t.Errorf("IDs = %v, %v", ids, err)
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
	s.mu.Lock()
	s.payloads["victim"][0] ^= 0x01 // simulated in-memory bit flip
	s.mu.Unlock()
	if _, err := s.Get("victim"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get corrupted payload err = %v, want ErrCorrupt", err)
	}
}
