package blob

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"besteffs/internal/object"
)

// The Store contract, written against the interface alone so that it holds
// for every implementation and every on-disk layout: nothing here names a
// file, a path or a record format. An implementation describes itself to
// the suite with three functions.
type contract struct {
	// open returns an empty store.
	open func(t *testing.T) Store
	// reopen returns a store over the same durable state as s, as a
	// restarted process would see it. For a store with no durable state it
	// returns s.
	reopen func(t *testing.T, s Store) Store
	// corrupt flips one stored byte of id's payload (which the suite put
	// as payload) behind the store's back.
	corrupt func(t *testing.T, s Store, id object.ID, payload []byte)
}

var memContract = contract{
	open:   func(*testing.T) Store { return NewMemStore() },
	reopen: func(_ *testing.T, s Store) Store { return s },
	corrupt: func(t *testing.T, s Store, id object.ID, _ []byte) {
		if err := s.(*MemStore).Corrupt(id); err != nil {
			t.Fatalf("Corrupt %q: %v", id, err)
		}
	},
}

var fileContract = contract{
	open: func(t *testing.T) Store {
		s, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatalf("NewFileStore: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	},
	reopen: func(t *testing.T, s Store) Store {
		r, err := NewFileStore(s.(*FileStore).Root())
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	},
	corrupt: func(t *testing.T, s Store, _ object.ID, payload []byte) {
		flipStoredByte(t, s.(*FileStore).Root(), payload)
	},
}

// flipStoredByte finds the one place under root where payload's bytes are
// stored and flips the middle one. It knows nothing about the layout: the
// payload must simply be long and distinctive enough to occur once.
func flipStoredByte(t *testing.T, root string, payload []byte) {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	hits := 0
	for _, e := range entries {
		path := filepath.Join(root, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		at := bytes.Index(raw, payload)
		if at < 0 {
			continue
		}
		if bytes.Contains(raw[at+1:], payload) {
			t.Fatalf("payload stored twice in %s", e.Name())
		}
		hits++
		raw[at+len(payload)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	if hits != 1 {
		t.Fatalf("payload found in %d files under %s, want 1", hits, root)
	}
}

// patterned returns n bytes that depend on every byte of tag, so two
// payloads of the suite never share a long run.
func patterned(tag string, n int) []byte {
	b := make([]byte, n)
	x := crc32.ChecksumIEEE([]byte(tag)) | 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// wantPayload asserts that Get, Verify and Sum all agree that id holds
// exactly want.
func wantPayload(t *testing.T, s Store, id object.ID, want []byte) {
	t.Helper()
	got, err := s.Get(id)
	if err != nil {
		t.Errorf("Get %q: %v", id, err)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Get %q = %d bytes, not the %d bytes put", id, len(got), len(want))
	}
	if err := s.Verify(id); err != nil {
		t.Errorf("Verify %q: %v", id, err)
	}
	sum, err := s.Sum(id)
	if err != nil || sum != crc32.ChecksumIEEE(want) {
		t.Errorf("Sum %q = %08x, %v; want %08x", id, sum, err, crc32.ChecksumIEEE(want))
	}
}

// wantAbsent asserts that Get, Verify and Sum all report id as not found.
func wantAbsent(t *testing.T, s Store, id object.ID) {
	t.Helper()
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get %q err = %v, want ErrNotFound", id, err)
	}
	if err := s.Verify(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Verify %q err = %v, want ErrNotFound", id, err)
	}
	if _, err := s.Sum(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Sum %q err = %v, want ErrNotFound", id, err)
	}
}

// storeContract runs the whole contract against one implementation.
func storeContract(t *testing.T, c contract) {
	t.Run("byte-exact get", func(t *testing.T) {
		s := c.open(t)
		wantAbsent(t, s, "missing")
		for _, n := range []int{1, 17, 4096, 70_000} {
			id := object.ID(fmt.Sprintf("size/%d", n))
			want := patterned(string(id), n)
			if err := s.Put(id, want); err != nil {
				t.Fatalf("Put %q: %v", id, err)
			}
			wantPayload(t, s, id, want)
		}
		// The store keeps its own copy: the caller may reuse its buffer.
		buf := patterned("reused", 64)
		want := bytes.Clone(buf)
		if err := s.Put("reused", buf); err != nil {
			t.Fatalf("Put: %v", err)
		}
		clear(buf)
		wantPayload(t, s, "reused", want)
	})

	t.Run("put of an existing ID replaces", func(t *testing.T) {
		s := c.open(t)
		for _, n := range []int{300, 20, 5000} { // shrink, then grow
			want := patterned(fmt.Sprint("v", n), n)
			if err := s.Put("a/b/c", want); err != nil {
				t.Fatalf("Put: %v", err)
			}
			wantPayload(t, s, "a/b/c", want)
		}
	})

	// First-in-first-out churn, as a full node's admissions make it: each
	// round deletes the oldest payloads and puts as many new ones. The
	// mixed round cycles through sizes from 0 B to past 8 KiB; the shift
	// churns at 128 B and then at 3 KiB, so the store's memory passes from
	// one size to another. Every survivor reads back byte for byte, and no
	// deleted ID is served.
	churn := func(t *testing.T, s Store, live, rounds int, sizes []int, next *int) []object.ID {
		t.Helper()
		var ids []object.ID
		want := make(map[object.ID][]byte)
		put := func() {
			id := object.ID(fmt.Sprintf("churn/%d", *next))
			want[id] = patterned(string(id), sizes[*next%len(sizes)])
			if err := s.Put(id, want[id]); err != nil {
				t.Fatalf("Put %q: %v", id, err)
			}
			ids = append(ids, id)
			*next++
		}
		for range live {
			put()
		}
		for range rounds {
			for range live / 4 {
				if err := s.Delete(ids[0]); err != nil {
					t.Fatalf("Delete %q: %v", ids[0], err)
				}
				wantAbsent(t, s, ids[0])
				delete(want, ids[0])
				ids = ids[1:]
			}
			for range live / 4 {
				put()
			}
		}
		for _, id := range ids {
			wantPayload(t, s, id, want[id])
		}
		return ids
	}

	t.Run("mixed-size churn", func(t *testing.T) {
		s := c.open(t)
		next := 0
		churn(t, s, 64, 16, []int{0, 1, 17, 128, 129, 1000, 3072, 8192, 8193, 20_000}, &next)
	})

	t.Run("size shift", func(t *testing.T) {
		s := c.open(t)
		next := 0
		small := churn(t, s, 128, 16, []int{128}, &next)
		for _, id := range small {
			if err := s.Delete(id); err != nil {
				t.Fatalf("Delete %q: %v", id, err)
			}
		}
		churn(t, s, 128, 16, []int{3072}, &next)
		for _, id := range small {
			wantAbsent(t, s, id)
		}
	})

	t.Run("delete is idempotent", func(t *testing.T) {
		s := c.open(t)
		if err := s.Delete("never put"); err != nil {
			t.Errorf("Delete of an absent ID: %v", err)
		}
		if err := s.Put("x", []byte("bytes")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		for i := 0; i < 2; i++ {
			if err := s.Delete("x"); err != nil {
				t.Errorf("Delete #%d: %v", i+1, err)
			}
			wantAbsent(t, s, "x")
		}
		// The ID is free again.
		if err := s.Put("x", []byte("again")); err != nil {
			t.Fatalf("Put after delete: %v", err)
		}
		wantPayload(t, s, "x", []byte("again"))
	})

	t.Run("hostile IDs neither escape nor collide", func(t *testing.T) {
		s := c.open(t)
		hostile := []object.ID{"../../etc/passwd", "..", ".", "a//b", "a\x00b", "a/b", "a\\b"}
		for i, id := range hostile {
			if err := s.Put(id, []byte{byte(i)}); err != nil {
				t.Fatalf("Put %q: %v", id, err)
			}
		}
		for i, id := range hostile {
			wantPayload(t, s, id, []byte{byte(i)})
		}
	})

	t.Run("IDs lists what Get would serve", func(t *testing.T) {
		s := c.open(t)
		lister, ok := s.(interface {
			IDs() ([]object.ID, error)
		})
		if !ok {
			t.Skipf("%T does not list its IDs", s)
		}
		for _, id := range []object.ID{"one", "two", "three", "two"} {
			if err := s.Put(id, []byte(id)); err != nil {
				t.Fatalf("Put %q: %v", id, err)
			}
		}
		if err := s.Delete("one"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		ids, err := lister.IDs()
		if err != nil {
			t.Fatalf("IDs: %v", err)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if len(ids) != 2 || ids[0] != "three" || ids[1] != "two" {
			t.Errorf("IDs = %q, want [three two]", ids)
		}
	})

	// What a restarted process must find: every put that returned, holding
	// the bytes of the last put of its ID. Whether a deleted ID stays
	// deleted across a restart is NOT part of the contract -- the node's
	// journal, not the payload store, is the authority on what is resident,
	// and recovery reconciles the two.
	t.Run("every put that returned survives a reopen", func(t *testing.T) {
		s := c.open(t)
		want := make(map[object.ID][]byte)
		for i := 0; i < 40; i++ {
			id := object.ID(fmt.Sprintf("obj/%d", i%30)) // ten IDs are put twice
			want[id] = patterned(fmt.Sprint("reopen", i), 100+37*i)
			if err := s.Put(id, want[id]); err != nil {
				t.Fatalf("Put %q: %v", id, err)
			}
		}
		for round := 0; round < 2; round++ {
			s = c.reopen(t, s)
			for id, p := range want {
				wantPayload(t, s, id, p)
			}
			// The reopened store takes writes, and they too survive.
			id := object.ID(fmt.Sprintf("obj/%d", 7*round))
			want[id] = patterned(fmt.Sprint("after reopen", round), 900)
			if err := s.Put(id, want[id]); err != nil {
				t.Fatalf("Put after reopen: %v", err)
			}
		}
		s = c.reopen(t, s)
		for id, p := range want {
			wantPayload(t, s, id, p)
		}
	})

	t.Run("a flipped payload byte is ErrCorrupt, never served", func(t *testing.T) {
		s := c.open(t)
		want := map[object.ID][]byte{
			"before": patterned("before", 512),
			"victim": patterned("victim", 512),
			"after":  patterned("after", 512),
		}
		for _, id := range []object.ID{"before", "victim", "after"} {
			if err := s.Put(id, want[id]); err != nil {
				t.Fatalf("Put %q: %v", id, err)
			}
		}
		c.corrupt(t, s, "victim", want["victim"])
		for round := 0; round < 2; round++ {
			if b, err := s.Get("victim"); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Get of a flipped payload = %d bytes, %v; want ErrCorrupt", len(b), err)
			}
			if err := s.Verify("victim"); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Verify of a flipped payload = %v, want ErrCorrupt", err)
			}
			// Sum reports what was recorded at Put: it is how a peer
			// learns which bytes the object should have.
			if sum, err := s.Sum("victim"); err != nil || sum != crc32.ChecksumIEEE(want["victim"]) {
				t.Errorf("Sum of a flipped payload = %08x, %v; want the checksum recorded at Put", sum, err)
			}
			// The neighbours are untouched.
			wantPayload(t, s, "before", want["before"])
			wantPayload(t, s, "after", want["after"])
			s = c.reopen(t, s) // and a restart does not launder the damage
		}
		// Putting the ID again heals it.
		if err := s.Put("victim", want["victim"]); err != nil {
			t.Fatalf("Put over a corrupt payload: %v", err)
		}
		wantPayload(t, s, "victim", want["victim"])
	})
}
