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
	"errors"
	"fmt"
	"time"

	"besteffs/internal/codec"
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

// fields names a record's fields once, in file order: kind, time and ID,
// then what the kind carries. A put carries the object's metadata and its
// importance function, a rejuvenation the new function.
func (r *Record) fields(c *codec.Codec) {
	c.U8((*uint8)(&r.Kind))
	c.I64((*int64)(&r.At))
	c.Str((*string)(&r.ID))
	switch r.Kind {
	case KindPut:
		c.I64(&r.Size)
		c.Str(&r.Owner)
		c.U8((*uint8)(&r.Class))
		c.U32(&r.Version)
		importance.Field(c, &r.Importance)
	case KindRejuvenate:
		importance.Field(c, &r.Importance)
	case KindDelete, KindEvict:
	default:
		c.Fail(fmt.Errorf("unknown record kind %v", r.Kind))
	}
}

// appendBody appends r's body (no framing) to buf. It walks its own copy of
// r, since the walk stores the class back even when encoding. On an error
// the slice returned holds buf's bytes alone.
func appendBody(buf []byte, r Record) ([]byte, error) {
	c := codec.Codec{Buf: buf, Enc: true}
	r.fields(&c)
	if c.Err != nil {
		return buf, fmt.Errorf("journal: encode %v record: %w", r.Kind, c.Err)
	}
	return c.Buf, nil
}

// encode serializes a record body (no framing).
func encode(r Record) ([]byte, error) { return appendBody(nil, r) }

// decode parses a record body; whatever follows its last field is ignored.
func decode(buf []byte) (Record, error) {
	var r Record
	c := codec.Codec{Buf: buf}
	r.fields(&c)
	if c.Err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, c.Err)
	}
	return r, nil
}

// ErrJournalClosed reports a write to a closed journal. It is a typed
// sentinel so callers can distinguish "the daemon already shut the journal
// down" from a real filesystem failure.
var ErrJournalClosed = errors.New("journal: closed")
