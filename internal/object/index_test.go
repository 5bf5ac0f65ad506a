package object

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"testing"
)

// indexOwner is an index's owner as the storage unit and the payload stores
// are one: a dense slice of entries, each holding its ID, from which a
// removal moves the last entry into the gap.
type indexOwner struct {
	x    Index
	keys []ID
}

func (o *indexOwner) key(pos int) ID { return o.keys[pos] }

func (o *indexOwner) find(id ID) (int, bool) { return o.x.Find(id, o.key) }

func (o *indexOwner) add(id ID) {
	o.x.Add(id, len(o.keys))
	o.keys = append(o.keys, id)
}

func (o *indexOwner) remove(pos int) {
	o.x.Remove(o.keys[pos], pos)
	o.fill(pos)
}

// take forgets id by Take and returns where its entry was.
func (o *indexOwner) take(id ID) (int, bool) {
	pos, ok := o.x.Take(id, o.key)
	if ok {
		o.fill(pos)
	}
	return pos, ok
}

// fill moves the last entry into the gap at pos, which the index no longer
// names.
func (o *indexOwner) fill(pos int) {
	last := len(o.keys) - 1
	if pos != last {
		o.x.Move(o.keys[last], last, pos)
		o.keys[pos] = o.keys[last]
	}
	o.keys = o.keys[:last]
}

// checkIndex verifies the table against the owner's slice: every entry is
// found at its position, every slot names a live entry by its fingerprint
// and is reached from its home without crossing an empty slot (there are no
// tombstones to cross either), and the table is between two and eight slots
// per entry once past its minimum size.
func checkIndex(t *testing.T, o *indexOwner) {
	t.Helper()
	x := &o.x
	if x.Len() != len(o.keys) {
		t.Fatalf("index holds %d IDs, the owner %d", x.Len(), len(o.keys))
	}
	seen := make([]bool, len(o.keys))
	mask := len(x.slots) - 1
	occupied := 0
	for i, s := range x.slots {
		if s == 0 {
			continue
		}
		occupied++
		pos := int(uint32(s)) - 1
		if pos < 0 || pos >= len(o.keys) || seen[pos] {
			t.Fatalf("slot %d names position %d of %d (seen before %t)", i, pos, len(o.keys), pos >= 0 && pos < len(seen) && seen[pos])
		}
		seen[pos] = true
		fp := uint32(s >> 32)
		if fp != x.fingerprint(o.keys[pos]) {
			t.Fatalf("slot %d: fingerprint %08x, %s hashes to %08x", i, fp, o.keys[pos], x.fingerprint(o.keys[pos]))
		}
		for j := x.home(fp); j != i; j = (j + 1) & mask {
			if x.slots[j] == 0 {
				t.Fatalf("slot %d is cut off from its home %d by the empty slot %d", i, x.home(fp), j)
			}
		}
	}
	if occupied != len(o.keys) {
		t.Fatalf("%d slots occupied for %d IDs", occupied, len(o.keys))
	}
	if n := len(x.slots); n > 0 && (n < 2*x.Len() || n > minIndexSlots && n > 8*x.Len()) {
		t.Fatalf("%d slots for %d IDs: outside two to eight per ID", n, x.Len())
	}
	for pos, id := range o.keys {
		if got, ok := o.find(id); !ok || got != pos {
			t.Fatalf("Find(%s) = %d, %t; it is at %d", id, got, ok, pos)
		}
	}
}

// FuzzIndex drives an index with random adds, finds, removes, takes and
// repoints and checks every find and take against a Go map, and the whole
// table against it at the end. Each input byte pair is an operation and an
// ID of 97, so adds and removes meet the same IDs and
// the table grows and shrinks across its thresholds.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 1, 1, 2, 3, 3})
	fill := make([]byte, 0, 512)
	for i := range 200 {
		fill = append(fill, 0, byte(i))
	}
	for i := range 56 {
		fill = append(fill, 2, byte(i*3))
	}
	f.Add(fill)
	taken := append([]byte(nil), fill...)
	for i := range 56 {
		taken = append(taken, 4, byte(i*3+1))
	}
	f.Add(taken)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var o indexOwner
		ref := make(map[ID]int)
		for k := 0; k+1 < len(ops); k += 2 {
			id := ID(fmt.Sprintf("id/%d", ops[k+1]%97))
			pos, present := ref[id]
			switch ops[k] % 5 {
			case 0: // add
				if !present {
					ref[id] = len(o.keys)
					o.add(id)
				}
			case 1: // find
				got, ok := o.find(id)
				if ok != present || ok && got != pos {
					t.Fatalf("step %d: Find(%s) = %d, %t; want %d, %t", k/2, id, got, ok, pos, present)
				}
			case 2: // remove
				if present {
					last := o.keys[len(o.keys)-1]
					o.remove(pos)
					delete(ref, id)
					if last != id {
						ref[last] = pos
					}
				}
			case 4: // take: find and remove on one hash
				var last ID
				if present {
					last = o.keys[len(o.keys)-1]
				}
				got, ok := o.take(id)
				if ok != present || ok && got != pos {
					t.Fatalf("step %d: Take(%s) = %d, %t; want %d, %t", k/2, id, got, ok, pos, present)
				}
				if present {
					delete(ref, id)
					if last != id {
						ref[last] = pos
					}
				}
			case 3: // repoint: the entry moves to the end of the slice
				if present {
					end, last := len(o.keys), len(o.keys)-1
					o.x.Move(id, pos, end)
					if pos != last {
						o.x.Move(o.keys[last], last, pos)
						o.keys[pos] = o.keys[last]
						ref[o.keys[pos]] = pos
					}
					o.x.Move(id, end, last)
					o.keys[last] = id
					ref[id] = last
				}
			}
			if o.x.Len() != len(ref) {
				t.Fatalf("step %d: index holds %d IDs, the map %d", k/2, o.x.Len(), len(ref))
			}
		}
		checkIndex(t, &o)
		for id, pos := range ref {
			if o.keys[pos] != id {
				t.Fatalf("the owner holds %s at %d, the map says %s", o.keys[pos], pos, id)
			}
		}
	})
}

// TestIndexFingerprintCollision: two IDs whose 32-bit fingerprints are
// equal are told apart by their keys, and removing either leaves the other
// where it is.
func TestIndexFingerprintCollision(t *testing.T) {
	var o indexOwner
	o.add("seed") // draws the index's seed
	byFP := make(map[uint32]ID)
	var a, b ID
	for i := 0; b == ""; i++ {
		if i == 1<<22 {
			t.Fatal("no fingerprint collision among 4M IDs")
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		id := ID(buf[:])
		fp := o.x.fingerprint(id)
		if prev, ok := byFP[fp]; ok {
			a, b = prev, id
		}
		byFP[fp] = id
	}
	o.add(a)
	o.add(b)
	checkIndex(t, &o)
	if _, ok := o.find(ID("absent")); ok {
		t.Fatal("found an ID never added")
	}
	o.remove(1) // a; b moves into its place
	checkIndex(t, &o)
	if _, ok := o.find(a); ok {
		t.Fatal("the removed ID is still found through its twin's fingerprint")
	}
	o.add(a)
	o.remove(1) // b; a moves into its place
	checkIndex(t, &o)
	if _, ok := o.find(b); ok {
		t.Fatal("the removed twin is still found")
	}
}

// TestIndexChurnStaysAtLiveSize: first-in-first-out churn of 64 times the
// live count, in groups as a storage unit's admissions make it, leaves the
// table the size the fill made it. A Go map under the same churn keeps
// growing (EXPERIMENTS.md, "Resident indexes").
func TestIndexChurnStaysAtLiveSize(t *testing.T) {
	const live, group = 4096, 64
	var o indexOwner
	for i := range live {
		o.add(ID(fmt.Sprint(i)))
	}
	filled := o.x.Slots()
	if filled > 4*live {
		t.Fatalf("%d slots after filling %d IDs", filled, live)
	}
	oldest := 0
	for next := live; next < 65*live; next += group {
		for range group {
			pos, ok := o.find(ID(fmt.Sprint(oldest)))
			if !ok {
				t.Fatalf("the oldest ID %d is missing", oldest)
			}
			o.remove(pos)
			oldest++
		}
		for i := range group {
			o.add(ID(fmt.Sprint(next + i)))
		}
	}
	checkIndex(t, &o)
	if got := o.x.Slots(); got != filled {
		t.Fatalf("%d slots after churn, %d after the fill", got, filled)
	}
}

// TestIndexEmptiesAndRegrows: removing every entry shrinks the table to its
// minimum, Reset keeps the table and the seed, and an index refills after
// both.
func TestIndexEmptiesAndRegrows(t *testing.T) {
	var o indexOwner
	if _, ok := o.find("x"); ok {
		t.Fatal("the zero index found an ID")
	}
	o.x.Remove("x", 0) // absent: no effect
	o.x.Move("x", 0, 1)
	for i := range 1000 {
		o.add(ID(fmt.Sprint(i)))
	}
	checkIndex(t, &o)
	for len(o.keys) > 0 {
		o.remove(len(o.keys) / 2)
	}
	checkIndex(t, &o)
	if got := o.x.Slots(); got != minIndexSlots {
		t.Fatalf("%d slots once empty, want %d", got, minIndexSlots)
	}
	for i := range 100 {
		o.add(ID(fmt.Sprint(i)))
	}
	seed, slots := o.x.seed, o.x.Slots()
	o.x.Reset()
	o.keys = o.keys[:0]
	if o.x.Len() != 0 || o.x.Slots() != slots || o.x.seed != seed {
		t.Fatalf("after Reset: %d IDs in %d slots (had %d), seed kept %t", o.x.Len(), o.x.Slots(), slots, o.x.seed == seed)
	}
	for i := range 100 {
		o.add(ID(fmt.Sprint(i)))
	}
	checkIndex(t, &o)
}

// TestIndexSeedsDiffer: two indexes draw different seeds, so an ID's slot
// in one says nothing about its slot in another.
func TestIndexSeedsDiffer(t *testing.T) {
	var a, b Index
	a.Add("x", 0)
	b.Add("x", 0)
	if a.seed == b.seed {
		t.Fatal("two indexes hash with one seed")
	}
	if a.fingerprint("x") != uint32(maphash.String(a.seed, "x")>>32) {
		t.Fatal("the fingerprint is not the top of the seeded hash")
	}
}

// TestIndexPositionRange: a position a slot cannot hold panics instead of
// being stored truncated.
func TestIndexPositionRange(t *testing.T) {
	cases := []func(*Index){
		func(x *Index) { x.Add("x", -1) },
		func(x *Index) { x.Move("x", 0, -1) },
	}
	// A position past the range exists only where int is wider than 32 bits.
	if math.MaxInt > maxIndexPos {
		past := uint64(maxIndexPos) + 1
		cases = append(cases,
			func(x *Index) { x.Add("x", int(past)) },
			func(x *Index) { x.Move("x", 0, int(past)) })
	}
	for _, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("an out-of-range position did not panic")
				}
			}()
			var x Index
			f(&x)
		}()
	}
}
