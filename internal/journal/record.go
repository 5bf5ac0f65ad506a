package journal

import (
	"fmt"

	"besteffs/internal/object"
)

// ObjectRecord serializes a live object as the KindPut record that
// reconstructs it on replay. At carries the object's arrival time, so a
// resident restored from a checkpoint keeps aging from its true arrival,
// not from the checkpoint instant.
func ObjectRecord(o *object.Object) Record {
	return Record{
		Kind: KindPut, At: o.Arrival, ID: o.ID, Size: o.Size,
		Owner: o.Owner(), Class: o.Class, Version: o.Version,
		Importance: o.Importance,
	}
}

// Object rebuilds the live object a KindPut record describes.
func (r Record) Object() (*object.Object, error) {
	if r.Kind != KindPut {
		return nil, fmt.Errorf("journal: record %v is not a put", r.Kind)
	}
	o, err := object.New(r.ID, r.Size, r.At, r.Importance)
	if err != nil {
		return nil, err
	}
	o.SetOwner(r.Owner)
	o.Class = r.Class
	if r.Version > 0 {
		o.Version = r.Version
	}
	return o, nil
}
