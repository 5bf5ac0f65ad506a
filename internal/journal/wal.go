package journal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// The segmented write-ahead log keeps a node's history in numbered segments
// under one directory:
//
//	wal/
//	  000000000001.seg
//	  000000000002.seg        <- sealed (fsynced at rotation)
//	  000000000003.seg        <- active (append target)
//	  checkpoint-000000000002.ckpt
//
// A segment is nothing but framed records ([u32 length][u32 CRC-32][body])
// back to back -- the framing and codec of the pre-WAL single-file
// journal.log, which is why such a file becomes a valid first segment by
// renaming it. A segment is sealed when it reaches the rotation size: the
// writer flushes, fsyncs the segment, fsyncs the directory and opens the
// next number. Sealed segments are therefore fully durable and any
// damage inside one is a hard fault; only the newest (active) segment may
// legitimately end in a torn record, which recovery truncates.

// DefaultSegmentBytes is the rotation threshold when WithSegmentBytes is not
// given. Recovery reads one segment at a time, so this also bounds replay
// memory.
const DefaultSegmentBytes = 4 << 20

// Numbered is one kind of a node's numbered files: a prefix, a zero-padded
// 12-digit sequence number, a suffix. It is the one naming scheme of every
// file recovery reads.
type Numbered struct {
	Prefix, Suffix string
	// First is the lowest number a file of this kind carries.
	First uint64
}

var (
	// Segments names WAL segments and the payload log's segments, from
	// 000000000001.seg on.
	Segments = Numbered{Suffix: ".seg", First: 1}
	// Checkpoints names a checkpoint by the segment it covers, which is 0
	// when Barrier found the first segment empty: checkpoint-000000000000.ckpt.
	Checkpoints = Numbered{Prefix: "checkpoint-", Suffix: ".ckpt"}
)

// Name renders seq as the file name.
func (n Numbered) Name(seq uint64) string {
	return fmt.Sprintf("%s%012d%s", n.Prefix, seq, n.Suffix)
}

// Parse extracts the number from a file name of this kind.
func (n Numbered) Parse(name string) (uint64, bool) {
	base, ok := strings.CutPrefix(name, n.Prefix)
	base, ok2 := strings.CutSuffix(base, n.Suffix)
	if !ok || !ok2 || len(base) != 12 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 10, 64)
	return seq, err == nil && seq >= n.First
}

// List returns the numbers of the files of this kind in dir, ascending; a
// missing dir holds none.
func (n Numbered) List(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: list %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries { // sorted by name, so by number
		if seq, ok := n.Parse(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	return seqs, nil
}

// Prune deletes the files of this kind in dir numbered below seq, then
// fsyncs dir, and returns how many it deleted.
func (n Numbered) Prune(dir string, below uint64) (int, error) {
	seqs, err := n.List(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range seqs {
		if s >= below {
			break
		}
		if err := os.Remove(filepath.Join(dir, n.Name(s))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, fmt.Errorf("journal: remove %s: %w", n.Name(s), err)
		}
		removed++
	}
	if removed > 0 {
		if err := SyncDir(dir); err != nil {
			return removed, fmt.Errorf("journal: sync %s: %w", dir, err)
		}
	}
	return removed, nil
}

// SyncDir fsyncs a directory so renames and unlinks inside it are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WAL is a segmented journal writer. It is safe for concurrent use.
type WAL struct {
	dir      string
	segBytes int64
	wrap     func(seq uint64, w io.Writer) io.Writer
	torn     int64 // bytes OpenWAL truncated from the newest segment

	mu     sync.Mutex
	f      *os.File
	bw     *bufio.Writer
	seq    uint64 // active segment
	size   int64  // bytes in the active segment
	closed bool
}

// WALOption configures OpenWAL.
type WALOption func(*WAL)

// WithSegmentBytes sets the rotation threshold: a record that would push
// the active segment past this size goes to a fresh segment instead. A
// single record larger than the threshold still gets written (alone in its
// segment).
func WithSegmentBytes(n int64) WALOption {
	return func(w *WAL) {
		if n > 0 {
			w.segBytes = n
		}
	}
}

// WithWriteWrapper interposes on every segment's byte stream; crash tests
// use it to cut the stream at an exact byte offset (faultnet.WriteBudget).
// The wrapper sees only record bytes, never fsyncs or renames.
func WithWriteWrapper(wrap func(seq uint64, w io.Writer) io.Writer) WALOption {
	return func(w *WAL) { w.wrap = wrap }
}

// OpenWAL opens (creating if needed) a segmented journal rooted at dir and
// prepares its newest segment for appending. It reads that segment alone: a
// torn final record -- the expected state after a crash mid-append -- is
// truncated away before the first append, and any other damage in it is a
// hard ErrCorrupt fault (run besteffsctl fsck to inspect the damage). The
// older segments are checked by replay. A new segment is numbered above
// every segment and every checkpoint in dir, since replay reads only what is
// above a checkpoint.
func OpenWAL(dir string, opts ...WALOption) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create wal dir: %w", err)
	}
	w := &WAL{dir: dir, segBytes: DefaultSegmentBytes}
	for _, opt := range opts {
		opt(w)
	}
	seqs, err := Segments.List(dir)
	if err != nil {
		return nil, err
	}
	cps, err := Checkpoints.List(dir)
	if err != nil {
		return nil, err
	}
	next := Segments.First
	if len(cps) > 0 {
		next = cps[len(cps)-1] + 1
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] < next {
		if err := w.openSegmentLocked(next, 0); err != nil {
			return nil, err
		}
		if err := SyncDir(dir); err != nil {
			return nil, fmt.Errorf("journal: sync wal dir: %w", err)
		}
		return w, nil
	}
	tail, err := readSegment(dir, seqs[len(seqs)-1], true, nil)
	if err != nil {
		return nil, err
	}
	if err := tail.err(); err != nil {
		return nil, err
	}
	if tail.Damage == DamageTornTail {
		if err := os.Truncate(tail.Path, tail.ValidBytes); err != nil {
			return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		w.torn = tail.TotalBytes - tail.ValidBytes
	}
	if err := w.openSegmentLocked(tail.Seq, tail.ValidBytes); err != nil {
		return nil, err
	}
	return w, nil
}

// TornTailBytes is the size of the torn final record OpenWAL truncated from
// the newest segment, 0 when there was none.
func (w *WAL) TornTailBytes() int64 { return w.torn }

// Dir returns the WAL's directory (checkpoints live next to the segments).
func (w *WAL) Dir() string { return w.dir }

// openSegmentLocked opens segment seq for appending at the given size.
// Callers hold w.mu (or have exclusive access during OpenWAL).
func (w *WAL) openSegmentLocked(seq uint64, size int64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, Segments.Name(seq)),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment %d: %w", seq, err)
	}
	var sink io.Writer = f
	if w.wrap != nil {
		sink = w.wrap(seq, f)
	}
	w.f, w.bw, w.seq, w.size = f, bufio.NewWriter(sink), seq, size
	return nil
}

// Append frames and writes one record: AppendBatch of one. It flushes per
// record without fsync: sealed segments are fsynced at rotation, and a crash
// can tear only the active segment's final record, which recovery truncates.
func (w *WAL) Append(r Record) error {
	_, err := w.AppendBatch([]Record{r})
	return err
}

// AppendBatch appends a group of records under ONE lock acquisition and ONE
// segment write, the journal half of a mutation's commit (the caller pairs it
// with a single Sync when the group must be durable before it is
// acknowledged). All records are framed into one buffer before any byte is
// written, so an encoding error writes nothing, and the buffer reaches the
// segment in one write however large the group -- one more per segment the
// group rotates into. A write error mid-batch leaves a prefix of the group on
// disk, which recovery handles exactly like a torn single append. The count
// of appended records is meaningful only when err is nil.
func (w *WAL) AppendBatch(recs []Record) (int, error) {
	buf := make([]byte, 0, 128*len(recs)) // a put's frame with a short ID and owner fits
	ends := make([]int, len(recs))        // ends[i]: where record i's frame ends in buf
	for i, r := range recs {
		var err error
		if buf, err = appendFrame(buf, r); err != nil {
			return 0, err
		}
		ends[i] = len(buf)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrJournalClosed
	}
	from, start := 0, 0 // buf[from:start]: the frames gathered for the active segment
	for i, end := range ends {
		n := int64(end - start)
		if w.size > 0 && w.size+n > w.segBytes {
			if _, err := w.bw.Write(buf[from:start]); err != nil {
				return i, fmt.Errorf("journal: append batch: %w", err)
			}
			if err := w.rotateLocked(); err != nil {
				return i, err
			}
			from = start
		}
		w.size += n
		start = end
	}
	if _, err := w.bw.Write(buf[from:]); err != nil {
		return 0, fmt.Errorf("journal: append batch: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return 0, fmt.Errorf("journal: append batch: %w", err)
	}
	return len(recs), nil
}

// rotateLocked seals the active segment (flush, fsync, close) and opens the
// next one, fsyncing the directory so the new name is durable.
func (w *WAL) rotateLocked() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("journal: rotate flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: rotate sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("journal: rotate close: %w", err)
	}
	if err := w.openSegmentLocked(w.seq+1, 0); err != nil {
		return err
	}
	if err := SyncDir(w.dir); err != nil {
		return fmt.Errorf("journal: rotate sync dir: %w", err)
	}
	return nil
}

// Barrier seals the active segment and returns its sequence number: every
// record appended before the call lives in a segment <= the returned number,
// durably on disk. An empty active segment is already a barrier, so Barrier
// returns the previous segment without rotating. Checkpoints use this to
// name the history they cover.
func (w *WAL) Barrier() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrJournalClosed
	}
	if w.size == 0 {
		return w.seq - 1, nil
	}
	sealed := w.seq
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return sealed, nil
}

// RemoveThrough deletes every sealed segment with sequence number <= seq
// (the active segment is never removed) and returns how many were deleted.
// Callers delete segments only after a checkpoint covering them is durable.
func (w *WAL) RemoveThrough(seq uint64) (int, error) {
	w.mu.Lock()
	active := w.seq
	closed := w.closed
	w.mu.Unlock()
	if closed {
		return 0, ErrJournalClosed
	}
	return Segments.Prune(w.dir, min(seq+1, active))
}

// Sync flushes buffered records and fsyncs the active segment, making every
// acknowledged append durable. After Close it is a no-op.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Close flushes and closes the WAL; closing twice is safe. The segment file
// is closed even when the final flush fails, so a crash-simulating test that
// exhausted its write budget still releases the descriptor.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	flushErr := w.bw.Flush()
	if err := w.f.Close(); err != nil && flushErr == nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	if flushErr != nil {
		return fmt.Errorf("journal: flush: %w", flushErr)
	}
	return nil
}
