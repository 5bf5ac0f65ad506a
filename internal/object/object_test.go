package object

import (
	"errors"
	"testing"
	"time"
	"unsafe"

	"besteffs/internal/importance"
)

const day = importance.Day

func TestNewValidation(t *testing.T) {
	twoStep := importance.TwoStep{Plateau: 1, Persist: 15 * day, Wane: 15 * day}
	tests := []struct {
		name    string
		id      ID
		size    int64
		imp     importance.Function
		wantErr error
	}{
		{"valid", "a/b", 100, twoStep, nil},
		{"empty id", "", 100, twoStep, ErrEmptyID},
		{"zero size", "a", 0, twoStep, ErrBadSize},
		{"negative size", "a", -5, twoStep, ErrBadSize},
		{"nil importance", "a", 100, nil, ErrNilImportance},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o, err := New(tt.id, tt.size, 0, tt.imp)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("New() error = %v, want %v", err, tt.wantErr)
			}
			if err == nil && o.Version != 1 {
				t.Errorf("Version = %d, want 1", o.Version)
			}
		})
	}
}

func TestAgeAndImportance(t *testing.T) {
	o, err := New("x", 1024, 100*day, importance.TwoStep{Plateau: 1, Persist: 15 * day, Wane: 15 * day})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := o.Age(90 * day); got != 0 {
		t.Errorf("Age before arrival = %v, want 0", got)
	}
	if got := o.Age(110 * day); got != 10*day {
		t.Errorf("Age = %v, want 10d", got)
	}
	if got := o.ImportanceAt(110 * day); got != 1 {
		t.Errorf("ImportanceAt(persist) = %v, want 1", got)
	}
	if got := o.ImportanceAt(122*day + 12*time.Hour); got >= 1 || got <= 0 {
		t.Errorf("ImportanceAt(mid wane) = %v, want in (0, 1)", got)
	}
	if !o.Expired(131 * day) {
		t.Error("object should be expired after persist+wane")
	}
}

func TestExpireTimeAndRemaining(t *testing.T) {
	o, err := New("x", 1, 50*day, importance.TwoStep{Plateau: 1, Persist: 10 * day, Wane: 5 * day})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	exp, ok := o.ExpireTime()
	if !ok || exp != 65*day {
		t.Errorf("ExpireTime = %v, %v; want 65d, true", exp, ok)
	}
	rem, ok := o.Remaining(55 * day)
	if !ok || rem != 10*day {
		t.Errorf("Remaining = %v, %v; want 10d, true", rem, ok)
	}

	forever, err := New("y", 1, 0, importance.Constant{Level: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, ok := forever.ExpireTime(); ok {
		t.Error("constant importance object should never expire")
	}
}

func TestWeightedImportance(t *testing.T) {
	o, err := New("x", 1000, 0, importance.TwoStep{Plateau: 0.5, Persist: 10 * day, Wane: 10 * day})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := o.WeightedImportance(0); got != 500 {
		t.Errorf("WeightedImportance at plateau = %v, want 500", got)
	}
	if got := o.WeightedImportance(15 * day); got != 250 {
		t.Errorf("WeightedImportance mid wane = %v, want 250", got)
	}
	if got := o.WeightedImportance(30 * day); got != 0 {
		t.Errorf("WeightedImportance after expiry = %v, want 0", got)
	}
}

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{ClassGeneric, "generic"},
		{ClassUniversity, "university"},
		{ClassStudent, "student"},
		{Class(99), "class(99)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.c), got, tt.want)
		}
	}
}

// TestObjectSize: a full node holds one Object per resident, and an Object
// is 64 bytes on a 64-bit target, the allocator's size class below 80. On a
// 32-bit target its words are half as wide, and it is no larger.
func TestObjectSize(t *testing.T) {
	size := unsafe.Sizeof(Object{})
	if unsafe.Sizeof(uintptr(0)) == 8 && size != 64 {
		t.Errorf("an Object is %d bytes, want 64", size)
	}
	if size > 64 {
		t.Errorf("an Object is %d bytes, want at most 64", size)
	}
}

// TestOwner: the empty owner is held as none, any other owner as given, and
// a copy of an object keeps its owner.
func TestOwner(t *testing.T) {
	o, err := New("x", 1, 0, importance.Constant{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Owner() != "" || o.owner != nil {
		t.Fatalf("a new object's owner = %q", o.Owner())
	}
	o.SetOwner("alice")
	cp := *o
	if o.Owner() != "alice" || cp.Owner() != "alice" {
		t.Errorf("owner %q, its copy's %q; want alice", o.Owner(), cp.Owner())
	}
	o.SetOwner("")
	if o.Owner() != "" || o.owner != nil || cp.Owner() != "alice" {
		t.Errorf("after clearing: owner %q (held %v), the copy's %q", o.Owner(), o.owner != nil, cp.Owner())
	}
}
