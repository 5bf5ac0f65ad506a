package blob

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"besteffs/internal/journal"
	"besteffs/internal/object"
)

// FileStore keeps payloads in an append-only log of numbered segments under
// one directory, named as the WAL's are (journal.Segments):
//
//	blobs/
//	  000000000007.seg        <- sealed: read, never written again
//	  000000000008.seg        <- sealed
//	  000000000009.seg        <- active (append target)
//
// A put -- or a whole group of puts -- is one write and one fsync at the
// tail of the active segment. Where each live payload lies is kept in
// memory only: the index is rebuilt at open from the record headers, in
// append order, the last record of an ID winning. Nothing is ever written
// in place and no tombstones are written, so a delete is an index operation
// and the log alone cannot say that an object is gone -- the node's journal
// can, and recovery marks the records of non-residents dead (in memory
// again). Space comes back a segment at a time: one with nothing live in it
// is unlinked, and once dead bytes outweigh live bytes by more than two
// segments the cleaner copies the live records of the emptiest sealed
// segment to the tail and unlinks it too. That keeps the directory under
// 2 x live + 3 segments while appending at most two bytes per byte put
// (DESIGN.md, "Payload log").
//
// Opening reads and changes nothing. The first append after an open starts
// a fresh segment rather than continuing the newest one, whose tail a crash
// may have torn; the same is done after a failed write.
type FileStore struct {
	root     string
	segBytes int64 // rotation size; fixed outside tests

	// appendMu serializes the writers -- Put, PutBatch and the reclamation
	// they start with -- and is held across the write and its fsync.
	appendMu sync.Mutex
	active   *segment // append target; nil until the first append after open
	nextSeq  uint64
	buf      []byte    // the records being committed, reused across commits
	pend     []pending // where in buf each record's payload starts

	// mu guards the index and the accounting and is never held across a
	// syscall: Get, Delete and Sum, and so the store unit's eviction hook,
	// never wait for another connection's fsync. Order: appendMu, then mu.
	mu      sync.Mutex
	index   object.Index // ID -> its entry's position in locs
	locs    []indexed
	segs    map[uint64]*segment
	empty   []*segment // sealed and nothing live: unlinked by the next append
	live    int64      // bytes of the records the index points at
	disk    int64      // bytes of every segment in segs
	cleaned int64      // bytes the cleaner has copied forward
	closed  bool       // set by Close, under appendMu and mu both
}

var _ Store = (*FileStore)(nil)

// indexed is one live payload: its ID and where it lies.
type indexed struct {
	id  object.ID
	loc location
}

// location is where a payload lies, and the CRC-32 recorded when it was
// put.
type location struct {
	seg *segment
	off int64 // of the payload's first byte within the segment
	n   uint32
	sum uint32
}

// segment is one file of the log. f serves reads by offset for as long as
// the segment exists, and for the active segment takes the appends.
type segment struct {
	seq uint64
	f   *os.File

	// Guarded by FileStore.mu; size is written only with appendMu held
	// too, so an appender reads it without mu.
	size   int64
	live   int64 // bytes of the records in this segment the index points at
	sealed bool
	// recs lists every record ever indexed in this segment, so that the
	// cleaner finds the live ones without trusting a header on disk a
	// second time. Appended to until the segment is sealed, then fixed.
	recs []segRecord
}

type segRecord struct {
	id  object.ID
	off int64
}

// pending is one staged record: its payload starts off bytes into buf.
type pending struct {
	id  object.ID
	off int64
	n   uint32
	sum uint32
}

// Stats is a snapshot of the log's space accounting: what the 2 x live + 3
// segments bound and the cleaner's cost are read from.
type Stats struct {
	// Segments is the number of segment files.
	Segments int `json:"segments"`
	// LiveBytes is the size of the records the index points at, framing
	// included.
	LiveBytes int64 `json:"live_bytes"`
	// DiskBytes is the size of all segment files.
	DiskBytes int64 `json:"disk_bytes"`
	// CleanedBytes counts the record bytes the cleaner has copied forward
	// since the store was opened.
	CleanedBytes int64 `json:"cleaned_bytes"`
}

const (
	// maxIdleBuffer bounds the memory a FileStore keeps for its next put:
	// its append buffer.
	maxIdleBuffer = 1 << 20
	// copyChunkBytes is how much the cleaner stages before it commits, so
	// that cleaning a segment does not grow the buffer past what a put
	// group needs.
	copyChunkBytes = 256 << 10
)

// NewFileStore opens the payload log under dir, creating the directory if
// needed, and rebuilds the index from the segments found there. It writes
// nothing. A directory holding the file-per-object layout of earlier
// versions is refused.
func NewFileStore(dir string) (_ *FileStore, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: create root: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("blob: list: %w", err)
	}
	s := &FileStore{
		root:     dir,
		segBytes: journal.DefaultSegmentBytes,
		nextSeq:  1,
		segs:     make(map[uint64]*segment),
	}
	defer func() {
		if err != nil { // release the segments opened so far
			for _, seg := range s.segs {
				seg.f.Close()
			}
		}
	}()
	sc := newScanner()
	for _, e := range entries { // sorted by name, so by sequence number
		if filepath.Ext(e.Name()) == ".obj" {
			return nil, fmt.Errorf("blob: %s holds file-per-object payloads (%s): this version reads "+
				"only the segment log and migrates nothing; start it on a fresh data directory",
				dir, e.Name())
		}
		seq, ok := journal.Segments.Parse(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		if err := s.load(seq, sc); err != nil {
			return nil, err
		}
		s.nextSeq = seq + 1
	}
	return s, nil
}

// load indexes one segment found at open. Whatever follows the last record
// that verifies -- a torn tail, damage, and every record behind it -- stays
// on disk as dead bytes.
func (s *FileStore) load(seq uint64, sc *scanner) error {
	f, err := os.Open(filepath.Join(s.root, journal.Segments.Name(seq)))
	if err != nil {
		return fmt.Errorf("blob: open segment: %w", err)
	}
	seg := &segment{seq: seq, f: f}
	s.segs[seq] = seg
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("blob: stat segment: %w", err)
	}
	seg.size = fi.Size()
	s.disk += seg.size
	sc.reset(f, seg.size)
	for {
		id, loc, ok, err := sc.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		loc.seg = seg
		s.publishLocked(id, loc)
	}
	s.sealLocked(seg)
	return nil
}

// Root returns the store's root directory.
func (s *FileStore) Root() string { return s.root }

// Put implements Store: one write and one fsync.
func (s *FileStore) Put(id object.ID, payload []byte) error {
	return s.PutBatch([]object.ID{id}, [][]byte{payload})
}

// PutBatch implements Store: the group's records are framed into one buffer
// and made durable by one write and one fsync, then indexed under one lock
// acquisition. It begins by restoring the space bound, so the cost of
// reclaiming what earlier deletes left dead falls on writers, outside every
// lock a reader or the eviction path takes.
func (s *FileStore) PutBatch(ids []object.ID, payloads [][]byte) error {
	if len(ids) != len(payloads) {
		return fmt.Errorf("blob: put batch of %d IDs and %d payloads", len(ids), len(payloads))
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := s.reclaim(); err != nil {
		return err
	}
	for i, id := range ids {
		p := payloads[i]
		if uint64(len(id)) > math.MaxUint32 || uint64(len(p)) > math.MaxUint32 {
			s.unstage()
			return fmt.Errorf("blob: record of %s exceeds the format's 4 GiB fields", id)
		}
		s.stageHeader(id, uint32(len(p)), crc32.ChecksumIEEE(p))
		s.buf = append(s.buf, p...)
	}
	return s.commit(nil)
}

// stageHeader frames a record header onto buf and notes where its payload,
// which the caller appends next, begins.
func (s *FileStore) stageHeader(id object.ID, n, sum uint32) {
	s.buf = appendHeader(s.buf, id, n, sum)
	s.pend = append(s.pend, pending{id: id, off: int64(len(s.buf)), n: n, sum: sum})
}

// unstage empties the staging area, letting go of a buffer a large group
// grew.
func (s *FileStore) unstage() {
	clear(s.pend)
	s.pend = s.pend[:0]
	s.buf = s.buf[:0]
	if cap(s.buf) > maxIdleBuffer {
		s.buf = nil
	}
}

// commit writes the staged records at the tail, fsyncs, and indexes them.
// from is nil for puts. The cleaner passes the segment it is copying out
// of: a record whose ID left that segment while the copy was in flight was
// deleted meanwhile, and its copy is left dead. Called with appendMu held.
func (s *FileStore) commit(from *segment) error {
	defer s.unstage()
	if len(s.pend) == 0 {
		return nil
	}
	seg, err := s.tail(int64(len(s.buf)))
	if err != nil {
		return err
	}
	base := seg.size
	written := int64(len(s.buf))
	if _, err = seg.f.WriteAt(s.buf, base); err == nil {
		err = seg.f.Sync()
	}
	if err != nil {
		// Some prefix of the records may be on disk, so nothing is written
		// behind them: the segment is sealed as it is, its real size
		// counted, and the next append starts a fresh one.
		written = 0
		if fi, statErr := seg.f.Stat(); statErr == nil {
			written = fi.Size() - base
		}
		err = fmt.Errorf("blob: append to segment %d: %w", seg.seq, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seg.size += written
	s.disk += written
	if err != nil {
		s.active = nil
		s.sealLocked(seg)
		return err
	}
	if from != nil {
		s.cleaned += written
	}
	for _, p := range s.pend {
		if from != nil {
			if loc, _ := s.lookupLocked(p.id); loc.seg != from {
				continue
			}
		}
		s.publishLocked(p.id, location{seg: seg, off: base + p.off, n: p.n, sum: p.sum})
	}
	return nil
}

// tail returns the segment the next n bytes go to: the active one unless
// they would push it past the rotation size, else a fresh one. A group
// larger than a segment gets one to itself. The new name is made durable
// before anything written under it is acknowledged.
func (s *FileStore) tail(n int64) (*segment, error) {
	if a := s.active; a != nil && a.size > 0 && a.size+n > s.segBytes {
		s.mu.Lock()
		s.sealLocked(a)
		s.mu.Unlock()
		s.active = nil
	}
	if s.active != nil {
		return s.active, nil
	}
	path := filepath.Join(s.root, journal.Segments.Name(s.nextSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blob: create segment: %w", err)
	}
	if err := journal.SyncDir(s.root); err != nil {
		//lint:ignore uncheckederr nothing was written; the empty file is removed and the sync error returned
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("blob: sync root after creating segment: %w", err)
	}
	seg := &segment{seq: s.nextSeq, f: f}
	s.mu.Lock()
	s.segs[seg.seq] = seg
	s.mu.Unlock()
	s.active = seg
	s.nextSeq++
	return seg, nil
}

// reclaim restores the space bound: it unlinks the segments in which
// nothing is live, and while dead bytes exceed live bytes by more than two
// segments it copies the live records of the emptiest sealed segment to the
// tail -- which empties that segment, so the next turn unlinks it. Under
// that condition less than half of the sealed bytes are live, so the
// emptiest sealed segment is less than half live: a pass copies fewer bytes
// than it frees, which is what bounds the appended bytes by twice the bytes
// put. Called with appendMu held.
func (s *FileStore) reclaim() error {
	for {
		s.mu.Lock()
		gone := s.empty
		s.empty = nil
		var victim *segment
		if dead := s.disk - s.live; len(gone) == 0 && dead > s.live+2*s.segBytes {
			for _, seg := range s.segs {
				if seg.sealed && (victim == nil || seg.liveShare() < victim.liveShare()) {
					victim = seg
				}
			}
		}
		s.mu.Unlock()
		switch {
		case len(gone) > 0:
			if err := s.unlink(gone); err != nil {
				return err
			}
		case victim == nil:
			return nil
		default:
			if err := s.copyForward(victim); err != nil {
				return err
			}
		}
	}
}

func (seg *segment) liveShare() float64 { return float64(seg.live) / float64(seg.size) }

// unlink removes segments the index no longer points into. A Get that
// looked its payload up just before finds the handle closed and looks
// again. Segments it fails to remove are left for the next append to retry.
func (s *FileStore) unlink(gone []*segment) error {
	removed := 0
	var err error
	for _, seg := range gone {
		// Every byte in it was fsynced when it was written, and the file is
		// about to go: Close has nothing left to report.
		seg.f.Close()
		if err = os.Remove(filepath.Join(s.root, journal.Segments.Name(seg.seq))); err != nil && !errors.Is(err, os.ErrNotExist) {
			break
		}
		removed++
	}
	if removed == len(gone) {
		err = journal.SyncDir(s.root)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range gone[:removed] {
		delete(s.segs, seg.seq)
		s.disk -= seg.size
	}
	s.empty = append(s.empty, gone[removed:]...)
	if err != nil {
		return fmt.Errorf("blob: remove segments: %w", err)
	}
	return nil
}

// copyForward re-appends the live records of a sealed segment, a chunk at a
// time. Each keeps the CRC recorded when its payload was first put, so a
// payload that rotted in the old segment is still caught in the new one.
func (s *FileStore) copyForward(victim *segment) error {
	for _, r := range victim.recs {
		s.mu.Lock()
		loc, ok := s.lookupLocked(r.id)
		s.mu.Unlock()
		if !ok || loc.seg != victim || loc.off != r.off {
			continue
		}
		s.stageHeader(r.id, loc.n, loc.sum)
		at := len(s.buf)
		s.buf = slices.Grow(s.buf, int(loc.n))[:at+int(loc.n)]
		if _, err := victim.f.ReadAt(s.buf[at:], loc.off); err != nil {
			s.unstage()
			return fmt.Errorf("blob: copy %s out of segment %d: %w", r.id, victim.seq, err)
		}
		if len(s.buf) >= copyChunkBytes {
			if err := s.commit(victim); err != nil {
				return err
			}
		}
	}
	return s.commit(victim)
}

// lookupLocked returns where id's payload lies.
func (s *FileStore) lookupLocked(id object.ID) (location, bool) {
	if i, ok := s.index.Find(id, s.idAtLocked); ok {
		return s.locs[i].loc, true
	}
	return location{}, false
}

// idAtLocked returns the ID of the entry at position i of locs.
func (s *FileStore) idAtLocked(i int) object.ID { return s.locs[i].id }

// publishLocked points the index at a record, retiring the one it
// supersedes.
func (s *FileStore) publishLocked(id object.ID, loc location) {
	if i, ok := s.index.Find(id, s.idAtLocked); ok {
		s.deadLocked(id, s.locs[i].loc)
		s.locs[i].loc = loc
	} else {
		s.index.Add(id, len(s.locs))
		s.locs = append(s.locs, indexed{id: id, loc: loc})
	}
	size := footprint(id, loc.n)
	loc.seg.live += size
	s.live += size
	loc.seg.recs = append(loc.seg.recs, segRecord{id: id, off: loc.off})
}

// retireLocked drops id from the index; its record becomes dead bytes. The
// last entry of locs moves into the gap.
func (s *FileStore) retireLocked(id object.ID) {
	i, ok := s.index.Take(id, s.idAtLocked)
	if !ok {
		return
	}
	s.deadLocked(id, s.locs[i].loc)
	last := len(s.locs) - 1
	if i != last {
		s.locs[i] = s.locs[last]
		s.index.Move(s.locs[i].id, last, i)
	}
	s.locs[last] = indexed{}
	s.locs = s.locs[:last]
}

// deadLocked counts id's record at loc as dead bytes.
func (s *FileStore) deadLocked(id object.ID, loc location) {
	size := footprint(id, loc.n)
	s.live -= size
	loc.seg.live -= size
	if loc.seg.live == 0 && loc.seg.sealed {
		s.empty = append(s.empty, loc.seg)
	}
}

// sealLocked ends a segment's time as the append target.
func (s *FileStore) sealLocked(seg *segment) {
	seg.sealed = true
	if seg.live == 0 {
		s.empty = append(s.empty, seg)
	}
}

// Get implements Store: one read at the indexed offset, checked against the
// CRC recorded at Put, so corrupt or torn bytes yield ErrCorrupt and are
// never returned.
func (s *FileStore) Get(id object.ID) ([]byte, error) {
	for {
		s.mu.Lock()
		loc, ok := s.lookupLocked(id)
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, errClosed
		}
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		b := make([]byte, loc.n)
		_, err := loc.seg.f.ReadAt(b, loc.off)
		switch {
		case errors.Is(err, os.ErrClosed):
			// The segment was reclaimed since the lookup, so the record
			// had moved or died by then: the index has the news.
			continue
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			return nil, fmt.Errorf("%w: %s: segment %d ends inside the payload", ErrCorrupt, id, loc.seg.seq)
		case err != nil:
			return nil, fmt.Errorf("blob: read %s: %w", id, err)
		case crc32.ChecksumIEEE(b) != loc.sum:
			return nil, fmt.Errorf("%w: %s", ErrCorrupt, id)
		}
		return b, nil
	}
}

// Verify implements Store: the read and check of Get, bytes discarded.
func (s *FileStore) Verify(id object.ID) error {
	_, err := s.Get(id)
	return err
}

// Sum implements Store from the index, without touching the disk.
func (s *FileStore) Sum(id object.ID) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.lookupLocked(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return loc.sum, nil
}

// Delete implements Store as an index operation: the record becomes dead
// bytes for the next append to reclaim, and nothing is written -- the node's
// journal is what remembers the delete across a restart.
func (s *FileStore) Delete(id object.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retireLocked(id)
	return nil
}

// IDs returns the IDs the index holds: at open, every ID with a readable
// record, whether or not the node still counts it resident.
func (s *FileStore) IDs() ([]object.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]object.ID, len(s.locs))
	for i, e := range s.locs {
		ids[i] = e.id
	}
	return ids, nil
}

// errClosed answers every call on a FileStore after Close.
var errClosed = fmt.Errorf("blob: store closed: %w", os.ErrClosed)

// Close closes every segment's descriptor. Every later call that reads or
// writes payloads returns an error, Close included. Each byte was fsynced
// when it was written, so the descriptors have nothing left to flush.
func (s *FileStore) Close() error {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	s.closed = true
	var err error
	for _, seg := range s.segs {
		err = errors.Join(err, seg.f.Close())
	}
	return err
}

// Stats returns the log's current space accounting.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Segments: len(s.segs), LiveBytes: s.live, DiskBytes: s.disk, CleanedBytes: s.cleaned}
}
