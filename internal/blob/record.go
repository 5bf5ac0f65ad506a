package blob

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"besteffs/internal/object"
)

// The payload log's record format. A segment is nothing but records back to
// back, each
//
//	[0:4]   magic be ef 0b 02
//	[4:8]   u32 ID length
//	[8:12]  u32 payload length
//	[12:16] u32 CRC-32 (IEEE) of the payload
//	[16:20] u32 CRC-32 (IEEE) of bytes [4:16] and the ID
//	[20:]   ID, then payload
//
// all integers big-endian. The header CRC makes the lengths, the ID and the
// recorded payload CRC trustworthy on their own, so the index is rebuilt
// from headers without reading a payload byte; the payload CRC is checked
// whenever the payload is read.
const headerLen = 20

var recordMagic = [4]byte{0xbe, 0xef, 0x0b, 0x02}

// footprint is the number of segment bytes the record of an n-byte payload
// under id occupies.
func footprint(id object.ID, n uint32) int64 {
	return headerLen + int64(len(id)) + int64(n)
}

// appendHeader frames a record header and its ID onto dst; the caller
// appends the n payload bytes next. sum is the payload's CRC-32: a put
// computes it, the cleaner passes on the one recorded when the payload was
// first stored.
func appendHeader(dst []byte, id object.ID, n, sum uint32) []byte {
	start := len(dst)
	dst = append(dst, recordMagic[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(id)))
	dst = binary.BigEndian.AppendUint32(dst, n)
	dst = binary.BigEndian.AppendUint32(dst, sum)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, id...)
	h := crc32.Update(0, crc32.IEEETable, dst[start+4:start+16])
	h = crc32.Update(h, crc32.IEEETable, dst[start+headerLen:])
	binary.BigEndian.PutUint32(dst[start+16:], h)
	return dst
}

// scanner reads a segment's record headers in append order. It is the only
// reader of headers: once a record is indexed, its payload is reached by
// offset.
type scanner struct {
	br   *bufio.Reader
	size int64 // bytes the segment holds
	off  int64 // offset of the next header
	id   []byte
}

// scanBufferBytes is the read-ahead of a scan: large enough that a segment
// of small payloads costs a read per sixteen records or so, small enough not
// to show in the daemon's footprint.
const scanBufferBytes = 64 << 10

func newScanner() *scanner {
	return &scanner{br: bufio.NewReaderSize(nil, scanBufferBytes)}
}

// reset points the scanner at the start of a segment of size bytes.
func (sc *scanner) reset(r io.Reader, size int64) {
	sc.br.Reset(r)
	sc.size, sc.off = size, 0
}

// next returns the next record: its ID and where its payload lies. ok is
// false at the first byte that does not begin a record lying wholly inside
// the segment with a header that verifies -- the clean end, the torn tail a
// crash leaves, or damage -- and sc.off then names that byte. Lengths cannot
// be trusted past such a point, so neither can anything after it. A read
// error other than running out of bytes is returned as err.
func (sc *scanner) next() (id object.ID, loc location, ok bool, err error) {
	var h [headerLen]byte
	if sc.size-sc.off < headerLen {
		return "", loc, false, nil
	}
	if _, err := io.ReadFull(sc.br, h[:]); err != nil {
		return "", loc, false, scanErr(err)
	}
	idLen := int64(binary.BigEndian.Uint32(h[4:]))
	n := binary.BigEndian.Uint32(h[8:])
	if [4]byte(h[:4]) != recordMagic || sc.size-sc.off-headerLen < idLen+int64(n) {
		return "", loc, false, nil
	}
	if int64(cap(sc.id)) < idLen {
		sc.id = make([]byte, idLen)
	}
	sc.id = sc.id[:idLen]
	if _, err := io.ReadFull(sc.br, sc.id); err != nil {
		return "", loc, false, scanErr(err)
	}
	sum := crc32.Update(0, crc32.IEEETable, h[4:16])
	sum = crc32.Update(sum, crc32.IEEETable, sc.id)
	if sum != binary.BigEndian.Uint32(h[16:]) {
		return "", loc, false, nil
	}
	if _, err := sc.br.Discard(int(n)); err != nil {
		return "", loc, false, scanErr(err)
	}
	loc = location{off: sc.off + headerLen + idLen, n: n, sum: binary.BigEndian.Uint32(h[12:])}
	sc.off = loc.off + int64(n)
	return object.ID(sc.id), loc, true, nil
}

// scanErr maps running out of bytes mid-record -- the file shrank under the
// scan -- to the end of the scan, and passes every other read error on.
func scanErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return fmt.Errorf("blob: scan segment: %w", err)
}
