package blob

import (
	"fmt"
	"math/bits"
	"os"
	"slices"
)

// The payload arena: where a MemStore keeps its payload bytes, in memory
// mapped from the operating system rather than on the garbage-collected
// heap. The collector lets the heap grow to twice its live size before it
// collects (GOGC=100), so a payload held on the heap costs about twice its
// bytes in resident memory; mapped bytes cost what they hold. The arena
// frees a payload's bytes when its entry is deleted, never by a collection.
//
// The arena is safe because no slice into it ever leaves the MemStore's
// lock: Get copies out, Put copies in, and Verify and Sum read in place.
// Unmapping a chunk that a slice still points into would turn the next use
// of that slice into a fault, not a panic.
//
// Payloads are grouped by size into classes, each carving fixed-size slots
// out of 64 KiB chunks; a payload larger than the largest class gets a
// mapping of its own. A delete leaves a hole, which the class's next put
// fills: an admission's arrivals take the slots their victims left. When a
// class's holes add up to more than a chunk, it compacts: the slots above
// its live count move down into the holes below it, and the chunks that
// leaves empty are unmapped. So a class maps at most one chunk more than its
// live payloads need, and one whose last payload is deleted maps nothing.

const (
	// chunkBytes is the size of every chunk a size class maps.
	chunkBytes = 64 << 10
	// maxClassBytes is the largest size class: a chunk holds at least eight
	// of its slots.
	maxClassBytes = chunkBytes / 8
)

// classSizes lists the slot sizes, ascending. Each is chunkBytes/n for a
// slot count n taken eight steps per doubling from 8 to chunkBytes, so two
// neighbouring classes differ by at most an eighth: a payload is rounded up
// by at most 12.5 %, and the slots of a chunk fill it to within that much
// as well.
var classSizes = sizeClasses()

func sizeClasses() []int {
	var sizes []int
	for n := 8; n <= chunkBytes; n += 1 << (bits.Len(uint(n)) - 4) {
		if size := chunkBytes / n; len(sizes) == 0 || size < sizes[len(sizes)-1] {
			sizes = append(sizes, size)
		}
	}
	slices.Reverse(sizes)
	return sizes
}

// largeClass is the class of payloads above maxClassBytes, each in a
// mapping of its own.
var largeClass = uint32(len(classSizes))

// pageBytes is the unit the operating system maps memory in.
var pageBytes = os.Getpagesize()

// classOf returns the class of an n-byte payload: the smallest class that
// holds it, or largeClass. An empty payload takes a slot of the smallest
// class, so that every entry names a slot.
func classOf(n int) uint32 {
	i, _ := slices.BinarySearch(classSizes, n)
	return uint32(i)
}

// slabClass is one size class: its chunks and which entry holds each slot.
type slabClass struct {
	size   int      // slot bytes; 0 for largeClass
	chunks [][]byte // mapped; for largeClass, one per slot, nil at a hole
	owners []int32  // owners[p] is the position of the entry in slot p, -1 at a hole
	holes  []uint32 // the slots below len(owners) that no entry holds
}

// perChunk is the number of slots a chunk of c holds.
func (c *slabClass) perChunk() int {
	if c.size == 0 {
		return 1
	}
	return chunkBytes / c.size
}

// slot returns the memory of slot p: the slot's size, or for largeClass the
// whole mapping.
func (c *slabClass) slot(p int) []byte {
	if c.size == 0 {
		return c.chunks[p]
	}
	per := c.perChunk()
	off := p % per * c.size
	return c.chunks[p/per][off : off+c.size]
}

// arena holds a MemStore's payloads. The MemStore's lock guards it.
type arena struct {
	classes []slabClass // indexed by class, largeClass last
	mapped  int64       // bytes of all chunks and mappings
}

func newArena() arena {
	classes := make([]slabClass, len(classSizes)+1)
	for i, size := range classSizes {
		classes[i].size = size
	}
	return arena{classes: classes}
}

// bytes returns the n payload bytes at slot p of class c. The slice must
// not outlive the MemStore's lock.
func (a *arena) bytes(c, p, n uint32) []byte {
	return a.classes[c].slot(int(p))[:n]
}

// alloc takes a slot of class c, large enough for n bytes, for the entry at
// position owner: the hole left last, or else a new slot, in a chunk it
// maps when the class's chunks are full.
func (a *arena) alloc(c uint32, n int, owner int) (uint32, error) {
	k := &a.classes[c]
	p, holes := len(k.owners), len(k.holes)
	if holes > 0 {
		p = int(k.holes[holes-1])
	}
	length := 0
	switch {
	case k.size == 0:
		length = (n + pageBytes - 1) / pageBytes * pageBytes
	case p == len(k.chunks)*k.perChunk():
		length = chunkBytes
	}
	if length > 0 {
		b, err := mapChunk(length)
		if err != nil {
			return 0, fmt.Errorf("blob: map %d bytes for a %d-byte payload: %w", length, n, err)
		}
		if p < len(k.chunks) {
			k.chunks[p] = b // a large payload's hole
		} else {
			k.chunks = append(k.chunks, b)
		}
		a.mapped += int64(length)
	}
	if holes > 0 {
		k.holes = k.holes[:holes-1]
		k.owners[p] = int32(owner)
	} else {
		k.owners = append(k.owners, int32(owner))
	}
	return uint32(p), nil
}

// free gives slot p of class c back, leaving a hole; a large payload's
// mapping is unmapped at once, and so is every chunk of a class left with
// no payload. It reports whether the class's holes now add up to more than
// a chunk, and the caller is to compact it.
func (a *arena) free(c, p uint32) (compact bool) {
	k := &a.classes[c]
	k.owners[p] = -1
	if k.size == 0 {
		a.unmap(k.chunks[p])
		k.chunks[p] = nil
	}
	k.holes = append(k.holes, p)
	if len(k.holes) == len(k.owners) {
		a.empty(k)
		return false
	}
	return len(k.holes) > k.perChunk()
}

// compact moves every payload at or above class c's live count into a hole
// below it, pointing its entry at the new slot, and unmaps the chunks that
// leaves empty. The class is dense afterwards.
func (a *arena) compact(c uint32, entries []memEntry) {
	k := &a.classes[c]
	live := len(k.owners) - len(k.holes)
	low := k.holes[:0]
	for _, h := range k.holes {
		if int(h) < live {
			low = append(low, h)
		}
	}
	for q := live; q < len(k.owners); q++ {
		o := k.owners[q]
		if o < 0 {
			continue
		}
		h := low[len(low)-1]
		low = low[:len(low)-1]
		if k.size == 0 {
			k.chunks[h], k.chunks[q] = k.chunks[q], nil
		} else {
			copy(k.slot(int(h)), k.slot(q))
		}
		k.owners[h] = o
		entries[o].slot = h
	}
	k.owners, k.holes = k.owners[:live], k.holes[:0]
	per := k.perChunk()
	a.truncate(k, (live+per-1)/per)
}

// setOwner records that the entry holding slot p of class c now sits at
// position owner.
func (a *arena) setOwner(c, p uint32, owner int) {
	a.classes[c].owners[p] = int32(owner)
}

// truncate unmaps the chunks of k from the n-th on.
func (a *arena) truncate(k *slabClass, n int) {
	for _, b := range k.chunks[n:] {
		if b != nil {
			a.unmap(b)
		}
	}
	clear(k.chunks[n:])
	k.chunks = k.chunks[:n]
}

// unmap gives one chunk back to the operating system. It cannot fail for a
// chunk mapChunk returned, so a failure is a bug in the arena.
func (a *arena) unmap(b []byte) {
	if err := unmapChunk(b); err != nil {
		panic(fmt.Sprintf("blob: unmap a %d-byte chunk: %v", len(b), err))
	}
	a.mapped -= int64(len(b))
}

// empty unmaps every chunk of k and forgets its slots.
func (a *arena) empty(k *slabClass) {
	a.truncate(k, 0)
	k.chunks, k.owners, k.holes = nil, nil, nil
}

// release unmaps every chunk. The arena is empty afterwards.
func (a *arena) release() {
	for c := range a.classes {
		a.empty(&a.classes[c])
	}
}
