package blob

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// Exactly one .obj file inside, no leftover temp files.
	inside, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("ReadDir root: %v", err)
	}
	objs := 0
	for _, e := range inside {
		if filepath.Ext(e.Name()) == ".obj" {
			objs++
		} else {
			t.Errorf("unexpected file %q in root", e.Name())
		}
	}
	if objs != 1 {
		t.Errorf("objs = %d, want 1", objs)
	}
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
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	if err := os.WriteFile(filepath.Join(root, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := os.WriteFile(filepath.Join(root, "zz-not-hex.obj"), []byte("x"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	ids, err := s.IDs()
	if err != nil || len(ids) != 0 {
		t.Errorf("IDs = %v, %v; want empty", ids, err)
	}
}

func TestFileStoreConcurrent(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id := object.ID(fmt.Sprintf("w%d/o%d", w, i))
				if err := s.Put(id, []byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(id); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 2 {
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestFileStoreDetectsCorruption(t *testing.T) {
	root := t.TempDir()
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	if err := s.Put("victim", []byte("precious bytes")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Flip one payload bit on disk.
	path := s.path("victim")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := s.Get("victim"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get bit-flipped payload err = %v, want ErrCorrupt", err)
	}
	// A header flip (stored checksum itself) is also detected.
	raw[len(raw)-1] ^= 0x01 // restore payload
	raw[5] ^= 0x80          // corrupt the CRC field
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := s.Get("victim"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get with flipped CRC err = %v, want ErrCorrupt", err)
	}
}

func TestFileStoreServesLegacyRawFiles(t *testing.T) {
	root := t.TempDir()
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	// A pre-checksum file: raw payload, no magic header.
	if err := os.WriteFile(s.path("old"), []byte("legacy payload"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := s.Get("old")
	if err != nil || string(got) != "legacy payload" {
		t.Errorf("Get legacy = %q, %v", got, err)
	}
}

// verifierTests exercises the Verifier contract against any implementation:
// intact payloads verify, missing ones report ErrNotFound, and Verify does
// not disturb the stored bytes.
func verifierTests(t *testing.T, s Store) {
	t.Helper()
	v, ok := s.(Verifier)
	if !ok {
		t.Fatalf("%T does not implement Verifier", s)
	}
	if err := v.Verify("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Verify missing err = %v, want ErrNotFound", err)
	}
	if err := s.Put("ok", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := v.Verify("ok"); err != nil {
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
	path := s.path("ok")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := s.Verify("ok"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Verify bit-flipped payload err = %v, want ErrCorrupt", err)
	}
	// Legacy files carry no checksum and verify vacuously.
	if err := os.WriteFile(s.path("old"), []byte("legacy"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := s.Verify("old"); err != nil {
		t.Errorf("Verify legacy file: %v", err)
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
