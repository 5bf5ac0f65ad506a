package object

import "hash/maphash"

// Index finds an ID's position in its owner's dense slice. The owner keeps
// its entries -- residents, payloads, payload locations -- in a slice, each
// entry holding its own ID, and removes one by moving the last entry into its
// place; the index maps each ID to where its entry is.
//
// The table is open-addressed with linear probing. A slot is one uint64, a
// 32-bit fingerprint of the ID's hash above the entry's position plus one
// (zero marks an empty slot), so the table holds no pointer and the garbage
// collector never scans it. Keys live only in the owner's slice: a lookup
// compares the ID of every entry whose fingerprint matches. A slot's home is
// the top bits of its fingerprint, so the table can be resized and a removal
// closed up without reading a key: removal shifts the slots behind the hole
// back instead of leaving a tombstone, and the table grows when it would
// pass half full and shrinks when it falls below an eighth, so under any mix
// of adds and removes it holds between two and eight slots per ID once past
// its minimum size. IDs arrive from the network, so each index hashes
// with a seed of its own drawn at random: a client that could predict the
// hash could pile its IDs onto one probe sequence.
//
// The zero Index is empty and ready to use. An Index is not safe for
// concurrent use; its owner's lock guards it with the slice.
type Index struct {
	slots []uint64
	shift uint // 32 - log2(len(slots)): a fingerprint's top bits are its home
	n     int
	seed  maphash.Seed
}

// minIndexSlots is the size a table starts at and never shrinks below.
const minIndexSlots = 8

// maxIndexPos is the largest position a slot can hold.
const maxIndexPos = 1<<32 - 2

// fingerprint returns the 32 bits of id's hash the index keeps.
func (x *Index) fingerprint(id ID) uint32 {
	return uint32(maphash.String(x.seed, string(id)) >> 32)
}

// home returns the slot a fingerprint's probe sequence starts at.
func (x *Index) home(fp uint32) int { return int(fp >> x.shift) }

// Len returns the number of IDs in the index.
func (x *Index) Len() int { return x.n }

// Slots returns the size of the table: what the index costs in memory, at
// eight bytes a slot.
func (x *Index) Slots() int { return len(x.slots) }

// Find returns the position of id's entry. key returns the ID of the entry
// at a position; it is called only for entries whose fingerprint matches,
// almost always just id's own.
func (x *Index) Find(id ID, key func(pos int) ID) (int, bool) {
	i, ok := x.lookup(id, key)
	if !ok {
		return 0, false
	}
	return x.pos(i), true
}

// Take finds id's entry, as Find does, and forgets it, as Remove does, on
// one hash of the ID. It returns the position the entry was at.
func (x *Index) Take(id ID, key func(pos int) ID) (int, bool) {
	i, ok := x.lookup(id, key)
	if !ok {
		return 0, false
	}
	pos := x.pos(i)
	x.clearSlot(i)
	return pos, true
}

// lookup returns the slot holding id, comparing key's ID at the position of
// every slot whose fingerprint matches.
func (x *Index) lookup(id ID, key func(pos int) ID) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	fp := x.fingerprint(id)
	mask := len(x.slots) - 1
	for i := x.home(fp); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return 0, false
		}
		if uint32(s>>32) == fp && key(x.pos(i)) == id {
			return i, true
		}
	}
}

// pos returns the position slot i holds.
func (x *Index) pos(i int) int { return int(uint32(x.slots[i])) - 1 }

// Add records that id's entry is at pos. The caller guarantees that id is
// not in the index.
func (x *Index) Add(id ID, pos int) {
	if pos < 0 || uint64(pos) > maxIndexPos {
		panic("object: index position out of range")
	}
	if x.slots == nil {
		x.seed = maphash.MakeSeed()
		x.resize(minIndexSlots)
	}
	if 2*(x.n+1) > len(x.slots) {
		x.resize(2 * len(x.slots))
	}
	x.place(uint64(x.fingerprint(id))<<32 | uint64(pos+1))
	x.n++
}

// Remove forgets id, whose entry is at pos.
func (x *Index) Remove(id ID, pos int) {
	if i, ok := x.slotOf(id, pos); ok {
		x.clearSlot(i)
	}
}

// clearSlot empties slot i and closes the hole it leaves.
func (x *Index) clearSlot(i int) {
	mask := len(x.slots) - 1
	// Close the hole: a slot behind it moves into it unless its home lies
	// cyclically after the hole, and the slot it left is the next hole.
	hole := i
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if s := x.slots[j]; (j-x.home(uint32(s>>32)))&mask >= (j-hole)&mask {
			x.slots[hole] = s
			hole = j
		}
	}
	x.slots[hole] = 0
	x.n--
	if len(x.slots) > minIndexSlots && 8*x.n < len(x.slots) {
		x.resize(len(x.slots) / 2)
	}
}

// Move records that id's entry moved from position from to position to.
func (x *Index) Move(id ID, from, to int) {
	if to < 0 || uint64(to) > maxIndexPos {
		panic("object: index position out of range")
	}
	if i, ok := x.slotOf(id, from); ok {
		x.slots[i] = x.slots[i]&^(1<<32-1) | uint64(to+1)
	}
}

// Reset empties the index, keeping its table for the next fill.
func (x *Index) Reset() {
	clear(x.slots)
	x.n = 0
}

// slotOf returns the slot holding id at pos. The position names the entry,
// so no key is compared.
func (x *Index) slotOf(id ID, pos int) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	fp := x.fingerprint(id)
	want := uint64(fp)<<32 | uint64(pos+1)
	mask := len(x.slots) - 1
	for i := x.home(fp); ; i = (i + 1) & mask {
		switch x.slots[i] {
		case want:
			return i, true
		case 0:
			return 0, false
		}
	}
}

// place puts a slot value at the first empty slot of its probe sequence.
func (x *Index) place(s uint64) {
	mask := len(x.slots) - 1
	i := x.home(uint32(s >> 32))
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// resize moves every slot into a new table of size slots, a power of two.
func (x *Index) resize(size int) {
	old := x.slots
	x.slots = make([]uint64, size)
	x.shift = 32
	for 1<<(32-x.shift) < size {
		x.shift--
	}
	for _, s := range old {
		if s != 0 {
			x.place(s)
		}
	}
}
