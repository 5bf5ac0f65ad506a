// Package journal persists a Besteffs node's metadata history as a
// segmented, checkpointed record log (see WAL), so a daemon restart can
// rebuild its storage unit -- which objects are resident, their arrival
// times, annotations and versions -- and resume its clock where the previous
// process stopped.
//
// Each record is framed as [u32 length][u32 CRC-32][body]; replay stops
// cleanly at a torn final frame, which is exactly the state a crash
// mid-append leaves behind. The log records history (admissions, deletions,
// evictions, rejuvenations) and provides no more durability than the paper
// promises for Besteffs (a single copy on one disk).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// Kind identifies a record type. Values are file-format-stable.
type Kind uint8

// Record kinds.
const (
	KindInvalid Kind = iota
	// KindPut records an admission.
	KindPut
	// KindDelete records an explicit delete.
	KindDelete
	// KindEvict records a policy eviction.
	KindEvict
	// KindRejuvenate records an annotation replacement.
	KindRejuvenate
)

// String returns the record-kind mnemonic.
func (k Kind) String() string {
	switch k {
	case KindPut:
		return "put"
	case KindDelete:
		return "delete"
	case KindEvict:
		return "evict"
	case KindRejuvenate:
		return "rejuvenate"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one journal entry. Put and Rejuvenate carry an importance
// function; Put additionally carries the object metadata.
type Record struct {
	// Kind is the record type.
	Kind Kind
	// At is the node time of the event.
	At time.Duration
	// ID names the object.
	ID object.ID
	// Size, Owner, Class and Version describe a put.
	Size    int64
	Owner   string
	Class   object.Class
	Version uint32
	// Importance is set for puts and rejuvenations.
	Importance importance.Function
}

// Format errors.
var (
	// ErrCorrupt reports a record that fails its checksum or decoding
	// mid-file (a torn tail is not an error; replay just stops there).
	ErrCorrupt = errors.New("journal: corrupt record")
)

const maxRecordSize = 1 << 20

// encode serializes a record body (no framing).
func encode(r Record) ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(r.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.At))
	if len(r.ID) > 0xFFFF {
		return nil, fmt.Errorf("journal: ID too long: %d bytes", len(r.ID))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.ID)))
	buf = append(buf, r.ID...)
	switch r.Kind {
	case KindPut:
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Size))
		if len(r.Owner) > 0xFFFF {
			return nil, fmt.Errorf("journal: owner too long: %d bytes", len(r.Owner))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Owner)))
		buf = append(buf, r.Owner...)
		buf = append(buf, byte(r.Class))
		buf = binary.BigEndian.AppendUint32(buf, r.Version)
		return appendImportance(buf, r.Importance)
	case KindRejuvenate:
		return appendImportance(buf, r.Importance)
	case KindDelete, KindEvict:
		// ID only.
	default:
		return nil, fmt.Errorf("journal: cannot encode %v", r.Kind)
	}
	return buf, nil
}

// appendImportance appends f's encoding behind a u16 length: it encodes in
// place and back-fills the length.
func appendImportance(buf []byte, f importance.Function) ([]byte, error) {
	at := len(buf)
	buf, err := importance.AppendEncode(append(buf, 0, 0), f)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	n := len(buf) - at - 2
	if n > 0xFFFF {
		return nil, fmt.Errorf("journal: importance encoding too long: %d bytes", n)
	}
	binary.BigEndian.PutUint16(buf[at:], uint16(n))
	return buf, nil
}

// takeImportance parses the u16-length importance field at the front of
// buf. The field must hold exactly one function's encoding.
func takeImportance(buf []byte) (importance.Function, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: short importance", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint16(buf))
	if len(buf)-2 < n {
		return nil, fmt.Errorf("%w: short importance", ErrCorrupt)
	}
	f, used, err := importance.Decode(buf[2 : 2+n])
	switch {
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	case used != n:
		return nil, fmt.Errorf("%w: importance field has %d trailing bytes", ErrCorrupt, n-used)
	}
	return f, nil
}

// decode parses a record body.
func decode(buf []byte) (Record, error) {
	fail := func(msg string) (Record, error) {
		return Record{}, fmt.Errorf("%w: %s", ErrCorrupt, msg)
	}
	if len(buf) < 11 {
		return fail("short header")
	}
	r := Record{Kind: Kind(buf[0])}
	r.At = time.Duration(binary.BigEndian.Uint64(buf[1:]))
	idLen := int(binary.BigEndian.Uint16(buf[9:]))
	buf = buf[11:]
	if len(buf) < idLen {
		return fail("short id")
	}
	r.ID = object.ID(buf[:idLen])
	buf = buf[idLen:]
	switch r.Kind {
	case KindPut:
		if len(buf) < 8+2 {
			return fail("short put")
		}
		r.Size = int64(binary.BigEndian.Uint64(buf))
		ownerLen := int(binary.BigEndian.Uint16(buf[8:]))
		buf = buf[10:]
		if len(buf) < ownerLen+1+4 {
			return fail("short put owner")
		}
		r.Owner = string(buf[:ownerLen])
		buf = buf[ownerLen:]
		r.Class = object.Class(buf[0])
		r.Version = binary.BigEndian.Uint32(buf[1:])
		f, err := takeImportance(buf[5:])
		if err != nil {
			return Record{}, err
		}
		r.Importance = f
	case KindRejuvenate:
		f, err := takeImportance(buf)
		if err != nil {
			return Record{}, err
		}
		r.Importance = f
	case KindDelete, KindEvict:
		// ID only.
	default:
		return fail("unknown kind")
	}
	return r, nil
}

// ErrJournalClosed reports a write to a closed journal. It is a typed
// sentinel so callers can distinguish "the daemon already shut the journal
// down" from a real filesystem failure.
var ErrJournalClosed = errors.New("journal: closed")
