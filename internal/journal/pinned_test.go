package journal

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// pinnedRecords are the body of one record of every kind, one field a
// space-separated hex group: WAL segments and checkpoints hold these bytes.
var pinnedRecords = []struct {
	rec Record
	hex string
}{
	{Record{
		Kind: KindPut, At: time.Hour, ID: "cs101/l1", Size: 1024,
		Owner: "prof", Class: object.ClassStudent, Version: 7,
		Importance: importance.TwoStep{Plateau: 1, Persist: 15 * day, Wane: 15 * day},
	}, "01 0000034630b8a000 0008 63733130312f6c31 0000000000000400 0004 70726f66 02 00000007 0019 01 3ff0000000000000 00049ab483a10000 00049ab483a10000"},
	{Record{Kind: KindDelete, At: 2 * time.Hour, ID: "cs101/l2"}, "02 0000068c61714000 0008 63733130312f6c32"},
	{Record{Kind: KindEvict, At: 3 * time.Hour, ID: "x"}, "03 000009d29229e000 0001 78"},
	{Record{
		Kind: KindRejuvenate, At: 4 * time.Hour, ID: "cs101/l1",
		Importance: importance.Constant{Level: 0.5},
	}, "04 00000d18c2e28000 0008 63733130312f6c31 0009 02 3fe0000000000000"},
}

func TestRecordBytesPinned(t *testing.T) {
	for _, tt := range pinnedRecords {
		t.Run(tt.rec.Kind.String(), func(t *testing.T) {
			pinned := strings.ReplaceAll(tt.hex, " ", "")
			got, err := encode(tt.rec)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if h := hex.EncodeToString(got); h != pinned {
				t.Errorf("encode = %s, want %s", h, pinned)
			}
			body, err := hex.DecodeString(pinned)
			if err != nil {
				t.Fatal(err)
			}
			r, err := decode(body)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(r, tt.rec) {
				t.Errorf("decode = %+v, want %+v", r, tt.rec)
			}
		})
	}
}
