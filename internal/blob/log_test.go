package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"besteffs/internal/object"
)

// openLog opens the log under root with small segments, so a test of a few
// hundred KiB crosses many rotations.
func openLog(t *testing.T, root string, segBytes int64) *FileStore {
	t.Helper()
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	s.segBytes = segBytes
	return s
}

// dirDigest hashes the names and contents of a directory's files, and
// returns their total size.
func dirDigest(t *testing.T, dir string) (string, int64) {
	t.Helper()
	h := sha256.New()
	total := int64(0)
	for _, name := range dirNames(t, dir) {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(raw))
		h.Write(raw)
		total += int64(len(raw))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), total
}

// copyDir copies a flat directory.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range dirNames(t, from) {
		raw, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// batchContract is the PutBatch half of the Store contract, for both
// implementations.
func batchContract(t *testing.T, c contract) {
	s := c.open(t)
	if err := s.Put("b/3", []byte("superseded by the batch")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ids := make([]object.ID, 64)
	payloads := make([][]byte, 64)
	want := make(map[object.ID][]byte)
	for i := range ids {
		ids[i] = object.ID(fmt.Sprintf("b/%d", i%60)) // the last four IDs repeat the first four
		payloads[i] = patterned(fmt.Sprint("batch", i), 50+i*31)
		want[ids[i]] = payloads[i] // as Put in slice order would leave it
	}
	if err := s.PutBatch(ids, payloads); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for round := 0; round < 2; round++ {
		for id, p := range want {
			wantPayload(t, s, id, p)
		}
		s = c.reopen(t, s)
	}
	if err := s.PutBatch(nil, nil); err != nil {
		t.Errorf("empty PutBatch: %v", err)
	}
	if err := s.PutBatch(ids[:2], payloads[:1]); err == nil {
		t.Error("PutBatch of two IDs and one payload succeeded")
	}
}

func TestMemStorePutBatch(t *testing.T)  { batchContract(t, memContract) }
func TestFileStorePutBatch(t *testing.T) { batchContract(t, fileContract) }

// TestFileStorePutBatchIsOneWrite: a group lands in the segment as one run
// of records -- one file, grown once -- and a group that would cross the
// rotation size goes whole into the next segment.
func TestFileStorePutBatchIsOneWrite(t *testing.T) {
	root := t.TempDir()
	s := openLog(t, root, 4<<10)
	group := func(tag string) ([]object.ID, [][]byte) {
		ids := make([]object.ID, 3)
		payloads := make([][]byte, 3)
		for i := range ids {
			ids[i] = object.ID(fmt.Sprintf("%s/%d", tag, i))
			payloads[i] = patterned(string(ids[i]), 1000)
		}
		return ids, payloads
	}
	for i, tag := range []string{"first", "second"} {
		ids, payloads := group(tag)
		if err := s.PutBatch(ids, payloads); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		names := dirNames(t, root)
		if len(names) != i+1 {
			t.Fatalf("after group %d the root holds %q", i+1, names)
		}
		fi, err := os.Stat(filepath.Join(root, names[i]))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		for k, id := range ids {
			want += footprint(id, uint32(len(payloads[k])))
		}
		if fi.Size() != want {
			t.Errorf("segment %s is %d bytes, want the group's %d", names[i], fi.Size(), want)
		}
	}
}

// TestFileStoreOpenChangesNothing: opening, reading and deleting leave the
// directory byte for byte as it was; only an append writes, and its first
// act is a fresh segment -- never a byte behind the old tail.
func TestFileStoreOpenChangesNothing(t *testing.T) {
	root := t.TempDir()
	s := openLog(t, root, 2<<10)
	for i := 0; i < 30; i++ {
		if err := s.Put(object.ID(fmt.Sprint("o", i)), patterned(fmt.Sprint(i), 300)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// A torn tail on the newest segment, as a crash would leave it.
	names := dirNames(t, root)
	newest := filepath.Join(root, names[len(names)-1])
	if err := os.Truncate(newest, 100); err != nil {
		t.Fatal(err)
	}
	before, _ := dirDigest(t, root)

	r := openLog(t, root, 2<<10)
	ids, err := r.IDs()
	if err != nil {
		t.Fatalf("IDs: %v", err)
	}
	for _, id := range ids {
		if _, err := r.Get(id); err != nil {
			t.Errorf("Get %s: %v", id, err)
		}
		if err := r.Delete(id); err != nil {
			t.Errorf("Delete %s: %v", id, err)
		}
	}
	if after, _ := dirDigest(t, root); after != before {
		t.Error("opening, reading and deleting modified the directory")
	}

	if err := r.Put("fresh", []byte("bytes")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Every old record is dead, so the append reclaimed every old segment
	// and wrote one new one, numbered after the newest it found.
	if got := dirNames(t, root); len(got) != 1 || got[0] != segName(uint64(len(names))+1) {
		t.Errorf("after the first append the root holds %q, want only %s", got, segName(uint64(len(names))+1))
	}
}

// TestFileStoreNeverWritesBehindATornTail: with live records in the old
// segments, the first append after an open leaves every one of them
// untouched.
func TestFileStoreNeverWritesBehindATornTail(t *testing.T) {
	root := t.TempDir()
	s := openLog(t, root, 1<<20)
	for i := 0; i < 5; i++ {
		if err := s.Put(object.ID(fmt.Sprint("o", i)), patterned(fmt.Sprint(i), 300)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	old := filepath.Join(root, segName(1))
	if err := os.Truncate(old, 5*footprint("o0", 300)-7); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	r := openLog(t, root, 1<<20)
	if err := r.Put("fresh", []byte("bytes")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	after, err := os.ReadFile(old)
	if err != nil || !bytes.Equal(before, after) {
		t.Errorf("segment with a torn tail changed under an append (%v)", err)
	}
	if got := dirNames(t, root); len(got) != 2 || got[1] != segName(2) {
		t.Errorf("root holds %q, want the old segment and %s", got, segName(2))
	}
}

// logFixture lays down two segments -- the second one's records are the
// ones the damage tests aim at -- and returns what a store over the intact
// directory serves.
func logFixture(t *testing.T, root string) (want map[object.ID][]byte, tail []object.ID) {
	t.Helper()
	want = make(map[object.ID][]byte)
	put := func(s *FileStore, id object.ID, tag string, n int) {
		t.Helper()
		want[id] = patterned(tag, n)
		if err := s.Put(id, want[id]); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	first := openLog(t, root, 1<<20)
	put(first, "old/a", "old/a", 400)
	put(first, "both", "both v1", 250) // superseded in the second segment
	put(first, "old/b", "old/b", 90)
	second := openLog(t, root, 1<<20) // a reopened store starts a new segment
	for _, id := range []object.ID{"new/a", "new/b", "both", "new/c"} {
		put(second, id, string(id)+" v2", 120+len(id)*40)
		tail = append(tail, id)
	}
	if got := dirNames(t, root); len(got) != 2 {
		t.Fatalf("fixture wrote %q, want two segments", got)
	}
	return want, tail
}

// checkSurvivors reopens a damaged copy of the fixture and checks that the
// records in lost, the tail of the second segment, are gone -- an ID with
// an older record in the first segment falls back to that one -- and every
// other record is served byte for byte.
func checkSurvivors(t *testing.T, dir string, want map[object.ID][]byte, lost []object.ID, what string) {
	t.Helper()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	t.Cleanup(func() { s.Close() })
	gone := make(map[object.ID]bool)
	for _, id := range lost {
		gone[id] = true
	}
	for id, p := range want {
		got, err := s.Get(id)
		switch {
		case !gone[id]:
			if err != nil || !bytes.Equal(got, p) {
				t.Errorf("%s: %s, wholly before the damage = %d bytes, %v", what, id, len(got), err)
			}
		case id == "both":
			if v1 := patterned("both v1", 250); err != nil || !bytes.Equal(got, v1) {
				t.Errorf("%s: %s = %d bytes, %v; want its older record", what, id, len(got), err)
			}
		case !errors.Is(err, ErrNotFound):
			t.Errorf("%s: %s, behind the damage = %d bytes, %v; want ErrNotFound", what, id, len(got), err)
		}
	}
	// The damaged store still takes writes.
	if err := s.Put("after", []byte("the damage")); err != nil {
		t.Errorf("%s: Put on the reopened store: %v", what, err)
	}
}

// TestSegmentTruncatedAtEveryOffset cuts the newest segment at every byte
// of its last two records: every record wholly before the cut survives,
// nothing of the cut one is served.
func TestSegmentTruncatedAtEveryOffset(t *testing.T) {
	root := filepath.Join(t.TempDir(), "intact")
	want, tail := logFixture(t, root)
	newest := segName(2)
	raw, err := os.ReadFile(filepath.Join(root, newest))
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is where tail[i]'s record ends.
	var ends []int
	end := 0
	for _, id := range tail {
		end += int(footprint(id, uint32(len(want[id]))))
		ends = append(ends, end)
	}
	if end != len(raw) {
		t.Fatalf("fixture segment is %d bytes, records add up to %d", len(raw), end)
	}
	for cut := ends[len(ends)-3]; cut < len(raw); cut++ {
		dir := filepath.Join(t.TempDir(), "cut")
		copyDir(t, root, dir)
		if err := os.Truncate(filepath.Join(dir, newest), int64(cut)); err != nil {
			t.Fatal(err)
		}
		var lost []object.ID
		for i, id := range tail {
			if ends[i] > cut {
				lost = append(lost, id)
			}
		}
		checkSurvivors(t, dir, want, lost, fmt.Sprintf("cut at %d", cut))
	}
}

// TestRecordHeaderFlippedAtEveryByte flips each byte of one record's header
// and ID in turn: that record and the ones behind it in its segment are not
// indexed, the ones before it and the other segment are untouched.
func TestRecordHeaderFlippedAtEveryByte(t *testing.T) {
	root := filepath.Join(t.TempDir(), "intact")
	want, tail := logFixture(t, root)
	newest := segName(2)
	start := int(footprint(tail[0], uint32(len(want[tail[0]])))) // the second record of the tail
	for at := start; at < start+headerLen+len(tail[1]); at++ {
		for _, bit := range []byte{0x01, 0x80} {
			dir := filepath.Join(t.TempDir(), "flip")
			copyDir(t, root, dir)
			path := filepath.Join(dir, newest)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[at] ^= bit
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			checkSurvivors(t, dir, want, tail[1:], fmt.Sprintf("byte %d ^ %#x", at, bit))
		}
	}
}

// FuzzScanSegment feeds the header scan arbitrary bytes: it must not
// panic, must stay inside the segment, and must yield only records whose
// header CRC verifies.
func FuzzScanSegment(f *testing.F) {
	var seg []byte
	for i, id := range []object.ID{"a", "some/longer/id", ""} {
		p := patterned(string(id), 10*i)
		seg = appendHeader(seg, id, uint32(len(p)), crc32.ChecksumIEEE(p))
		seg = append(seg, p...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(append(bytes.Clone(seg[:headerLen+5]), seg...))
	huge := bytes.Clone(seg)
	binary.BigEndian.PutUint32(huge[8:], 0xffffffff)
	f.Add(huge)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := newScanner()
		sc.reset(bytes.NewReader(data), int64(len(data)))
		prev := int64(0)
		for {
			id, loc, ok, err := sc.next()
			if err != nil {
				t.Fatalf("scan of an in-memory segment failed: %v", err)
			}
			if !ok {
				break
			}
			start := loc.off - int64(len(id)) - headerLen
			if start != prev || loc.off+int64(loc.n) > int64(len(data)) {
				t.Fatalf("record %q at [%d, %d) of a %d-byte segment, previous ended at %d",
					id, start, loc.off+int64(loc.n), len(data), prev)
			}
			prev = loc.off + int64(loc.n)
			h := data[start : start+headerLen]
			sum := crc32.Update(0, crc32.IEEETable, h[4:16])
			sum = crc32.Update(sum, crc32.IEEETable, []byte(id))
			if [4]byte(h[:4]) != recordMagic || sum != binary.BigEndian.Uint32(h[16:]) ||
				loc.n != binary.BigEndian.Uint32(h[8:]) || loc.sum != binary.BigEndian.Uint32(h[12:]) {
				t.Fatalf("indexed record %q at %d does not match its header % x", id, start, h)
			}
		}
		if sc.off != prev || sc.off > int64(len(data)) {
			t.Fatalf("scan stopped at %d, last record ended at %d", sc.off, prev)
		}
	})
}

// TestFileStoreAbandonsSegmentAfterFailedWrite: a write that fails may have
// left part of a record behind, so the store reports the error, indexes
// nothing of the group, and continues in a fresh segment.
func TestFileStoreAbandonsSegmentAfterFailedWrite(t *testing.T) {
	root := t.TempDir()
	s := openLog(t, root, 1<<20)
	if err := s.Put("kept", []byte("before the failure")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Swap the append handle for a read-only one: the next write fails.
	ro, err := os.Open(filepath.Join(root, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	s.active.f.Close()
	s.active.f = ro
	if err := s.PutBatch([]object.ID{"x", "y"}, [][]byte{[]byte("1"), []byte("2")}); err == nil {
		t.Fatal("PutBatch over a failing segment succeeded")
	}
	wantAbsent(t, s, "x")
	wantAbsent(t, s, "y")
	wantPayload(t, s, "kept", []byte("before the failure"))
	if err := s.Put("x", []byte("second try")); err != nil {
		t.Fatalf("Put after the failure: %v", err)
	}
	wantPayload(t, s, "x", []byte("second try"))
	if got := dirNames(t, root); len(got) != 2 {
		t.Errorf("root holds %q, want the abandoned segment and a fresh one", got)
	}
}

// TestCleanerKeepsTheRecordedChecksum: a payload that rotted in a sealed
// segment is copied forward with the CRC recorded at Put, not one computed
// from the rotten bytes.
func TestCleanerKeepsTheRecordedChecksum(t *testing.T) {
	root := t.TempDir()
	s := openLog(t, root, 1<<10)
	rotten := patterned("rotten", 300)
	if err := s.PutBatch([]object.ID{"rotten", "churn"}, [][]byte{rotten, patterned("c", 600)}); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	flipStoredByte(t, root, rotten)
	// Every further segment gets one record that stays live and one that the
	// next round supersedes, so none empties by itself and the cleaner has
	// to start with the emptiest -- the first.
	first := filepath.Join(root, segName(1))
	for i := 0; ; i++ {
		if _, err := os.Stat(first); errors.Is(err, os.ErrNotExist) {
			break
		}
		if i > 100 {
			t.Fatal("the cleaner never reclaimed the first segment")
		}
		if err := s.PutBatch(
			[]object.ID{object.ID(fmt.Sprint("keep/", i)), "churn"},
			[][]byte{patterned(fmt.Sprint("keep", i), 400), patterned(fmt.Sprint(i), 500)},
		); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
	}
	if s.Stats().CleanedBytes == 0 {
		t.Fatal("the first segment went without the cleaner")
	}
	if b, err := s.Get("rotten"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get of a rotten payload after cleaning = %d bytes, %v; want ErrCorrupt", len(b), err)
	}
}

// checkLocations verifies the FileStore's index as checkEntries does the
// MemStore's: the index and the location slice hold the same IDs, and each
// is found at the position it sits in.
func checkLocations(t *testing.T, s *FileStore) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.locs) != s.index.Len() {
		t.Fatalf("%d locations, %d in the ID index", len(s.locs), s.index.Len())
	}
	for i, e := range s.locs {
		if at, ok := s.index.Find(e.id, s.idAtLocked); !ok || at != i {
			t.Fatalf("locs[%d] = %s, found at %d (present %t)", i, e.id, at, ok)
		}
	}
}

// TestSpaceBoundUnderAdversarialChurn is the regime that is worst for a
// log: a long-lived core a quarter of capacity that never dies, under 50
// capacities' worth of churn whose objects -- some twenty-five to a segment
// -- die in random order, so that hardly a segment empties by itself.
// After every append the directory is within 2 x live + 3 segments; every
// 1000 operations the files on disk agree with the accounting and every
// live payload is byte-exact; and a reopen at any of those points, once the
// deletes are re-applied, has the same live set. At the end the store has
// appended less than two bytes per byte put.
func TestSpaceBoundUnderAdversarialChurn(t *testing.T) {
	const (
		segBytes = 8 << 10
		capacity = 128 << 10
		churn    = 50 * capacity
	)
	rng := rand.New(rand.NewSource(19))
	root := t.TempDir()
	s := openLog(t, root, segBytes)

	sizes := make(map[object.ID]int) // the live set
	var churnIDs []object.ID         // live, deletable
	liveBytes := int64(0)
	payload := func(id object.ID) []byte { return patterned(string(id), sizes[id]) }
	ops, put, cleaned, serial := 0, int64(0), int64(0), 0

	// group stages 1-8 fresh objects; core ones are never deleted.
	group := func(core bool) {
		n := 1 + rng.Intn(8)
		ids := make([]object.ID, n)
		payloads := make([][]byte, n)
		for i := range ids {
			serial++
			ids[i] = object.ID(fmt.Sprintf("obj/%d", serial))
			sizes[ids[i]] = 60 + rng.Intn(500)
			payloads[i] = payload(ids[i])
			size := footprint(ids[i], uint32(sizes[ids[i]]))
			liveBytes += size
			put += size
			if !core {
				churnIDs = append(churnIDs, ids[i])
			}
		}
		var err error
		if n == 1 {
			err = s.Put(ids[0], payloads[0])
		} else {
			err = s.PutBatch(ids, payloads)
		}
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		ops += n
		st := s.Stats()
		if st.LiveBytes != liveBytes {
			t.Fatalf("op %d: store counts %d live bytes, the model %d", ops, st.LiveBytes, liveBytes)
		}
		if bound := 2*st.LiveBytes + 3*segBytes; st.DiskBytes > bound {
			t.Fatalf("op %d: %d bytes on disk for %d live, over 2 x live + 3 segments = %d",
				ops, st.DiskBytes, st.LiveBytes, bound)
		}
	}
	deleteRandom := func() {
		i := rng.Intn(len(churnIDs))
		id := churnIDs[i]
		churnIDs[i] = churnIDs[len(churnIDs)-1]
		churnIDs = churnIDs[:len(churnIDs)-1]
		if err := s.Delete(id); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		liveBytes -= footprint(id, uint32(sizes[id]))
		delete(sizes, id)
		ops++
	}
	// audit compares the files with the accounting and reads every live
	// payload back.
	audit := func() {
		t.Helper()
		checkLocations(t, s)
		st := s.Stats()
		if _, onDisk := dirDigest(t, root); onDisk != st.DiskBytes || len(dirNames(t, root)) != st.Segments {
			t.Fatalf("op %d: %d bytes in %d files on disk, the store counts %d in %d",
				ops, onDisk, len(dirNames(t, root)), st.DiskBytes, st.Segments)
		}
		ids, err := s.IDs()
		if err != nil || len(ids) != len(sizes) {
			t.Fatalf("op %d: %d IDs, %v; the model holds %d", ops, len(ids), err, len(sizes))
		}
		for id := range sizes {
			if got, err := s.Get(id); err != nil || !bytes.Equal(got, payload(id)) {
				t.Fatalf("op %d: live %s = %d bytes, %v", ops, id, len(got), err)
			}
		}
	}
	// reopen replaces the store by a fresh one over the same directory and
	// re-applies the deletes the log does not record.
	reopen := func() {
		t.Helper()
		cleaned += s.Stats().CleanedBytes
		s = openLog(t, root, segBytes)
		ids, err := s.IDs()
		if err != nil {
			t.Fatalf("IDs: %v", err)
		}
		for _, id := range ids {
			if _, live := sizes[id]; !live {
				if err := s.Delete(id); err != nil {
					t.Fatalf("Delete: %v", err)
				}
			}
		}
	}

	// The core goes in between churn groups, so that every early segment
	// holds some of it beside records that will die: none of those segments
	// empties by itself, and the cleaner has to carry the core along.
	for core := int64(0); core < capacity/4; {
		before := liveBytes
		group(true)
		core += liveBytes - before
		group(false)
	}
	nextAudit, audits := 1000, 0
	for put < churn {
		for liveBytes > capacity-8*600 {
			deleteRandom()
		}
		group(false)
		if ops >= nextAudit {
			nextAudit += 1000
			audits++
			audit()
			if audits%7 == 0 {
				reopen()
				audit()
			}
		}
	}
	// Every churn object dies; the core alone is left.
	for len(churnIDs) > 0 {
		deleteRandom()
	}
	group(true)
	audit()
	cleaned += s.Stats().CleanedBytes
	if cleaned == 0 {
		t.Fatal("the cleaner never ran: the workload is not adversarial")
	}
	if amp := float64(put+cleaned) / float64(put); amp > 2 {
		t.Errorf("appended %d bytes for %d put: amplification %.2f, want <= 2", put+cleaned, put, amp)
	} else {
		t.Logf("%d ops, %d audits: %d bytes put, %d copied forward, amplification %.2f", ops, audits, put, cleaned, amp)
	}
}
