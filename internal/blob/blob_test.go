package blob

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"unsafe"

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

// slotBytes returns the size of the arena slot s holds id's payload in.
func slotBytes(t *testing.T, s *MemStore, id object.ID) int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(id)
	if e == nil {
		t.Fatalf("%s is not stored", id)
	}
	return len(s.arena.classes[e.class].slot(int(e.slot)))
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
	inClass := make([]int, len(s.arena.classes))
	for i, e := range s.entries {
		if at, ok := s.index.Find(e.id, s.idAtLocked); !ok || at != i {
			t.Fatalf("entries[%d] = %s, found at %d (present %t)", i, e.id, at, ok)
		}
		k := &s.arena.classes[e.class]
		if int(e.slot) >= len(k.owners) || k.owners[e.slot] != int32(i) {
			t.Fatalf("entries[%d] = %s names slot %d of class %d, which the arena does not give it", i, e.id, e.slot, e.class)
		}
		if e.class != classOf(int(e.n)) {
			t.Fatalf("entries[%d] = %s: %d bytes in class %d, want class %d", i, e.id, e.n, e.class, classOf(int(e.n)))
		}
		inClass[e.class]++
	}
	var mapped int64
	for c := range s.arena.classes {
		k := &s.arena.classes[c]
		per := k.perChunk()
		if len(k.owners)-len(k.holes) != inClass[c] || len(k.holes) > per {
			t.Fatalf("class %d holds %d slots, %d of them holes, for %d entries; at most %d holes", c, len(k.owners), len(k.holes), inClass[c], per)
		}
		holes := make(map[uint32]bool)
		for _, h := range k.holes {
			if int(h) >= len(k.owners) || k.owners[h] != -1 || holes[h] {
				t.Fatalf("class %d: hole %d of %d slots is held or listed twice", c, h, len(k.owners))
			}
			holes[h] = true
		}
		if chunks := (len(k.owners) + per - 1) / per; len(k.chunks) != chunks {
			t.Fatalf("class %d holds %d slots in %d chunks, want %d", c, len(k.owners), len(k.chunks), chunks)
		}
		for p, b := range k.chunks {
			switch {
			case k.size > 0 && len(b) != chunkBytes,
				k.size == 0 && k.owners[p] < 0 && b != nil,
				k.size == 0 && k.owners[p] >= 0 && (len(b)%pageBytes != 0 || len(b) < int(s.entries[k.owners[p]].n)):
				t.Fatalf("class %d: chunk %d is %d bytes", c, p, len(b))
			}
			mapped += int64(len(b))
		}
	}
	if mapped != s.arena.mapped {
		t.Fatalf("the arena's chunks are %d bytes, it counts %d", mapped, s.arena.mapped)
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

// TestMemStoreMappedStaysAtLiveSize, the arena's twin of the test above:
// first-in-first-out churn of mixed sizes leaves the arena's mapped bytes
// within an eighth of the live payload bytes, plus two chunks per size class
// in use (a partly filled one and at most a chunk's worth of holes) and the
// page rounding of each payload that has a mapping of its own; a full
// delete leaves nothing mapped.
func TestMemStoreMappedStaysAtLiveSize(t *testing.T) {
	const live, group = 1024, 64
	sizes := []int{0, 1, 7, 100, 128, 129, 1000, 3000, 3072, 8192, 8193, 20_000}
	s := NewMemStore()
	ids := make([]object.ID, group)
	payloads := make([][]byte, group)
	length := make(map[object.ID]int)
	next, oldest := 0, 0
	put := func() {
		for i := range ids {
			ids[i] = object.ID(fmt.Sprint(next))
			payloads[i] = patterned(string(ids[i]), sizes[next*7%len(sizes)])
			length[ids[i]] = len(payloads[i])
			next++
		}
		if err := s.PutBatch(ids, payloads); err != nil {
			t.Fatal(err)
		}
	}
	bound := func() {
		t.Helper()
		checkEntries(t, s)
		var payloadBytes, large int
		classes := make(map[uint32]bool)
		for _, n := range length {
			payloadBytes += n
			if c := classOf(n); c == largeClass {
				large++
			} else {
				classes[c] = true
			}
		}
		limit := int64(payloadBytes+payloadBytes/8) + int64(2*len(classes))*chunkBytes + int64(large*pageBytes)
		if got := s.MappedBytes(); got > limit {
			t.Fatalf("%d bytes mapped for %d live payload bytes in %d classes and %d large payloads, bound %d",
				got, payloadBytes, len(classes), large, limit)
		}
	}
	for range live / group {
		put()
	}
	bound()
	for range 16 * live / group {
		for range group {
			id := object.ID(fmt.Sprint(oldest))
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(length, id)
			oldest++
		}
		put()
	}
	bound()
	for _, id := range []object.ID{object.ID(fmt.Sprint(oldest)), object.ID(fmt.Sprint(next - 1))} {
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, patterned(string(id), length[id])) {
			t.Errorf("Get(%s) = %d bytes, %v", id, len(got), err)
		}
	}
	for id := range length {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	checkEntries(t, s)
	if got := s.MappedBytes(); got != 0 {
		t.Errorf("%d bytes mapped after every payload was deleted", got)
	}
}

// TestMemEntrySize: an entry names its payload by class, slot and length
// rather than by a slice header, so it is an ID and four 32-bit words: 32
// bytes on a 64-bit platform, where a []byte alone was 24.
func TestMemEntrySize(t *testing.T) {
	if got, want := unsafe.Sizeof(memEntry{}), unsafe.Sizeof(object.ID(""))+16; got != want {
		t.Errorf("a memEntry is %d bytes, want %d", got, want)
	}
}

// TestMemStoreReusesDeletedBuffers: a put after deletes takes the slots the
// deleted payloads left, as an arrival takes its victim's, and maps nothing
// new. A Get result held across the reuse keeps its bytes, a neighbour in
// the victim's size class still reads back, the deleted ID is not found,
// and a payload's slot is at most an eighth larger than it.
func TestMemStoreReusesDeletedBuffers(t *testing.T) {
	s := NewMemStore()
	victim, kept := bytes.Repeat([]byte("v"), 1024), bytes.Repeat([]byte("k"), 1020)
	if err := s.PutBatch([]object.ID{"victim", "kept", "small"}, [][]byte{victim, kept, []byte("tiny")}); err != nil {
		t.Fatal(err)
	}
	held, err := s.Get("victim")
	if err != nil {
		t.Fatal(err)
	}
	mapped := s.MappedBytes()
	for _, id := range []object.ID{"victim", "small"} {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	arrival := bytes.Repeat([]byte("a"), 1000)
	if err := s.PutBatch([]object.ID{"arrival", "small again"}, [][]byte{arrival, []byte("tiny")}); err != nil {
		t.Fatal(err)
	}
	if got := s.MappedBytes(); got != mapped {
		t.Errorf("the arrivals took %d mapped bytes to %d instead of their victims' slots", mapped, got)
	}
	if !bytes.Equal(held, victim) {
		t.Error("a Get result changed when its entry's slot was reused")
	}
	if _, err := s.Get("victim"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of the deleted ID = %v, want ErrNotFound", err)
	}
	for id, want := range map[object.ID][]byte{"arrival": arrival, "kept": kept, "small again": []byte("tiny")} {
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, want) {
			t.Errorf("Get of %s = %q, %v", id, got, err)
		}
	}
	checkEntries(t, s)

	// An admission of 16 arrivals over 16 victims of 4 KiB, a chunk's worth:
	// the victims' slots stay mapped as holes, and the arrivals fill them
	// without mapping a chunk.
	ids, payloads := make([]object.ID, 32), make([][]byte, 32)
	for i := range ids {
		ids[i], payloads[i] = object.ID(fmt.Sprint("full/", i)), patterned(fmt.Sprint(i), 4096)
	}
	if err := s.PutBatch(ids, payloads); err != nil {
		t.Fatal(err)
	}
	mapped = s.MappedBytes()
	for _, id := range ids[:16] {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	checkEntries(t, s)
	if got := s.MappedBytes(); got != mapped {
		t.Errorf("deleting 16 victims took %d mapped bytes to %d: their slots were not kept", mapped, got)
	}
	if err := s.PutBatch(ids[:16], payloads[16:]); err != nil {
		t.Fatal(err)
	}
	if got := s.MappedBytes(); got != mapped {
		t.Errorf("16 arrivals over 16 victims took %d mapped bytes to %d", mapped, got)
	}
	for i, id := range ids {
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, payloads[16+i%16]) {
			t.Errorf("Get of %s = %d bytes, %v", id, len(got), err)
		}
	}

	// A payload's slot fits it within an eighth: a small payload never
	// pins a large slot.
	for _, n := range []int{1, 9, 129, 1000, 1025, 4096, 5000, 8192} {
		id := object.ID(fmt.Sprint("fit/", n))
		if err := s.Put(id, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if got := slotBytes(t, s, id); got < n || got > n+n/8 {
			t.Errorf("a %d-byte payload lies in a %d-byte slot", n, got)
		}
	}
}

// TestMemStoreBoundsDeletedBuffers: deleting payloads in any order keeps at
// most a chunk's worth of holes mapped per class, so a class maps at most
// one chunk more than its live payloads need, and deleting everything leaves
// nothing mapped and no deleted ID served.
func TestMemStoreBoundsDeletedBuffers(t *testing.T) {
	s := NewMemStore()
	payload := make([]byte, 4096) // 16 to a chunk, no rounding
	const n = 1024                // 4 MiB stored, then deleted
	for i := range n {
		if err := s.Put(object.ID(fmt.Sprint(i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MappedBytes(); got != n*4096 {
		t.Errorf("%d payloads of 4 KiB map %d bytes", n, got)
	}
	for i := range n {
		// Every third ID first, then the rest: chunks empty out of order.
		id := object.ID(fmt.Sprint(i * 3 % n))
		if i >= (n+2)/3 {
			id = object.ID(fmt.Sprint(i))
		}
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		if left, got := s.Len(), s.MappedBytes(); got > int64((left+15)/16+1)*chunkBytes {
			t.Fatalf("%d payloads of 4 KiB left, %d bytes mapped", left, got)
		}
	}
	for i := range n {
		if err := s.Delete(object.ID(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MappedBytes(); got != 0 {
		t.Errorf("%d bytes mapped after every payload was deleted", got)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after deleting everything", s.Len())
	}
	if _, err := s.Get("0"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of a deleted ID = %v, want ErrNotFound", err)
	}
}

// TestMemStoreReuseConcurrent: writers that put, read back and delete
// their own IDs at once, so every put may take a slot another writer's
// delete freed, each read back only their own bytes, and leave nothing
// mapped.
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
	if got := s.MappedBytes(); got != 0 {
		t.Errorf("%d bytes mapped after every writer deleted its payloads", got)
	}
}

// TestMemStoreReleaseUnmapsAll: the finalizer's release unmaps every chunk
// and mapping of every class.
func TestMemStoreReleaseUnmapsAll(t *testing.T) {
	s := NewMemStore()
	for i, n := range []int{0, 100, 3000, 8192, 8193, 70_000} {
		if err := s.Put(object.ID(fmt.Sprint(i)), make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if s.MappedBytes() == 0 {
		t.Fatal("nothing mapped")
	}
	s.arena.release()
	for c, k := range s.arena.classes {
		if len(k.chunks) != 0 {
			t.Errorf("class %d keeps %d chunks", c, len(k.chunks))
		}
	}
	if got := s.MappedBytes(); got != 0 {
		t.Errorf("%d bytes mapped after release", got)
	}
}

// fuzzMaxPayload is the largest payload FuzzMemStore puts: three times the
// largest size class, so that payloads with a mapping of their own are
// reached as well as every class.
const fuzzMaxPayload = 3 * maxClassBytes

// FuzzMemStore runs a stream of puts, overwrites, deletes, gets, verifies
// and corruptions of payloads from 0 B to fuzzMaxPayload against a map of
// copies, checking the store's entries after every step and reading every
// survivor at the end. Each step takes four bytes: the operation and a size
// shift, the ID (one of 32, so puts overwrite and the classes above 2 KiB
// can compact), and a 16-bit size.
func FuzzMemStore(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0, 0, 1, 0xff, 0xff, 2, 0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0x10, 3, 0x40, 0x1f, 0x31, 3, 0x80, 0, 1, 3, 0, 0}, 20))
	f.Add([]byte{0x70, 7, 9, 0, 4, 7, 0, 0, 2, 7, 0, 0, 0, 7, 0xff, 0x5f, 2, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewMemStore()
		want := make(map[object.ID][]byte)
		corrupt := make(map[object.ID]bool) // an odd number of flips
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			op, id := data[0]%5, object.ID(fmt.Sprint("id/", data[1]%32))
			size := (int(binary.LittleEndian.Uint16(data[2:])) % (fuzzMaxPayload + 1)) >> ((data[0] >> 4) % 12)
			switch op {
			case 0: // put, or overwrite
				p := patterned(fmt.Sprint(step), size)
				if err := s.Put(id, p); err != nil {
					t.Fatalf("step %d: Put %s (%d B): %v", step, id, size, err)
				}
				want[id], corrupt[id] = p, false
			case 1:
				if err := s.Delete(id); err != nil {
					t.Fatalf("step %d: Delete %s: %v", step, id, err)
				}
				delete(want, id)
				delete(corrupt, id)
			case 2:
				got, err := s.Get(id)
				p, ok := want[id]
				switch {
				case !ok:
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: Get of absent %s = %d B, %v", step, id, len(got), err)
					}
				case corrupt[id]:
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("step %d: Get of corrupt %s = %d B, %v", step, id, len(got), err)
					}
				case err != nil || !bytes.Equal(got, p):
					t.Fatalf("step %d: Get %s = %d B, %v; want the %d B put", step, id, len(got), err, len(p))
				}
			case 3:
				err := s.Verify(id)
				if _, ok := want[id]; !ok && !errors.Is(err, ErrNotFound) ||
					ok && corrupt[id] && !errors.Is(err, ErrCorrupt) || ok && !corrupt[id] && err != nil {
					t.Fatalf("step %d: Verify %s = %v (stored %t, corrupt %t)", step, id, err, ok, corrupt[id])
				}
			case 4:
				err := s.Corrupt(id)
				if len(want[id]) == 0 {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: Corrupt of absent or empty %s = %v", step, id, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("step %d: Corrupt %s: %v", step, id, err)
				}
				corrupt[id] = !corrupt[id]
			}
			checkEntries(t, s)
			if s.Len() != len(want) {
				t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(want))
			}
		}
		for id, p := range want {
			if got, err := s.Get(id); corrupt[id] && !errors.Is(err, ErrCorrupt) ||
				!corrupt[id] && (err != nil || !bytes.Equal(got, p)) {
				t.Fatalf("survivor %s = %d B, %v; want %d B (corrupt %t)", id, len(got), err, len(p), corrupt[id])
			}
		}
	})
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
