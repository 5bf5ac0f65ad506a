package store

import (
	"cmp"
	"math"
	"slices"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// Besides its slot, every resident sits in the run of its importance
// function, in arrival order (policy.View): the planner and the expiry sweep
// read a run only as far as they need, and runs need no upkeep as time passes.
//
// A run owns its function: it holds one value, decoded or given once, and
// every member holds that value, so a full node keeps one function per
// function in use rather than one per resident. An arrival that carries its
// function encoded (PutBatchEncoded) finds the run by those bytes and is
// decoded only when no resident shares its function. A resident finds its
// run through its slot, which names the run by a handle that stays put when
// the runs are compacted, so neither finding nor leaving a run encodes
// anything. Handles are reused, so they stay below the most runs the unit
// ever held, and a slot's handle costs one byte until one past 255 is in use.

// runMeta is what a unit keeps of a run besides its members: its key, the
// one function its members hold, and the handle their slots name it by.
type runMeta struct {
	key    string
	fn     importance.Function
	handle int32
}

// runKeyLocked returns the key of o's run, encoded into u.key: the encoding
// of its importance function, since equal encodings are equal functions. A
// function without an encoding (a type foreign to package importance) gets a
// run of its own under the object's ID; no encoding starts with a zero byte,
// so that key collides with none. Only an object that arrives without its
// function's encoding needs it.
func (u *Unit) runKeyLocked(o *object.Object) []byte {
	k, err := importance.AppendEncode(u.key[:0], o.Importance)
	if err != nil {
		k = append(append(u.key[:0], 0), o.ID...)
	}
	u.key = k
	return k
}

// functionLocked returns the function an arrival whose function is encoded
// as enc takes: its run's, when a resident holds it, and else enc decoded.
func (u *Unit) functionLocked(enc []byte) (importance.Function, error) {
	if i, ok := u.runOf[string(enc)]; ok {
		return u.runMeta[i].fn, nil
	}
	f, _, err := importance.Decode(enc)
	return f, err
}

// linkRunLocked appends the resident in slot, whose run's key is key, to its
// run, and gives it the run's function; a key no resident has starts a run
// that owns the resident's function. A live or replayed put arrives no
// earlier than the newest of its run. An older arrival (a replica's, a
// restored checkpoint's) marks the run for one sort before the runs are next
// read, so that a bulk restore is not quadratic.
func (u *Unit) linkRunLocked(slot int, key []byte) {
	o := u.order[slot]
	i, ok := u.runOf[string(key)]
	if ok {
		o.Importance = u.runMeta[i].fn
	} else {
		i = u.newRunLocked(string(key), o.Importance)
	}
	u.slotRun.set(slot, u.runMeta[i].handle)
	run := u.runs[i]
	if len(run) > 0 && o.Arrival < run[len(run)-1].Arrival {
		u.unsorted = append(u.unsorted, i)
	}
	u.runs[i] = append(run, o)
}

// newRunLocked starts an empty run under key, owning fn, and returns its
// index. Its handle is one a dropped run freed, if any.
func (u *Unit) newRunLocked(key string, fn importance.Function) int {
	i := len(u.runs)
	var h int32
	if n := len(u.freeHandles); n > 0 {
		h, u.freeHandles = u.freeHandles[n-1], u.freeHandles[:n-1]
		u.runAt[h] = int32(i)
	} else {
		h = int32(len(u.runAt))
		u.runAt = append(u.runAt, int32(i))
	}
	u.runOf[key] = i
	u.runs = append(u.runs, nil)
	u.runMeta = append(u.runMeta, runMeta{key: key, fn: fn, handle: h})
	return i
}

// relinkRunLocked puts the resident in slot back at index j of the run under
// key, where unlinkRunLocked took it from, so that the run stays in order.
func (u *Unit) relinkRunLocked(slot, j int, key string) {
	i, ok := u.runOf[key]
	if !ok {
		u.linkRunLocked(slot, []byte(key))
		return
	}
	u.runs[i] = slices.Insert(u.runs[i], j, u.order[slot])
	u.slotRun.set(slot, u.runMeta[i].handle)
}

// settleLocked puts the runs appended to out of arrival order back in order.
func (u *Unit) settleLocked() {
	if len(u.unsorted) == 0 {
		return
	}
	slices.Sort(u.unsorted)
	for _, i := range slices.Compact(u.unsorted) {
		slices.SortFunc(u.runs[i], func(a, b *object.Object) int { return cmp.Compare(a.Arrival, b.Arrival) })
	}
	u.unsorted = u.unsorted[:0]
}

// unlinkRunLocked takes the resident in slot out of its run and returns the
// index it held there and the run's key: by reslicing when it is the head, as
// a victim usually is, and otherwise by its arrival. An emptied run is
// dropped, so there are never more runs than residents.
func (u *Unit) unlinkRunLocked(slot int) (int, string) {
	u.settleLocked()
	o := u.order[slot]
	i := int(u.runAt[u.slotRun.at(slot)])
	run := u.runs[i]
	j := 0
	if run[0] == o {
		run[0] = nil
		run = run[1:]
	} else {
		j, _ = slices.BinarySearchFunc(run, o.Arrival, func(m *object.Object, at time.Duration) int {
			return cmp.Compare(m.Arrival, at)
		})
		for run[j] != o {
			j++
		}
		run = slices.Delete(run, j, j+1)
	}
	u.runs[i] = run
	key := u.runMeta[i].key
	if len(run) == 0 {
		u.dropRunLocked(i)
	}
	return j, key
}

// dropRunLocked removes the empty run at index i and frees its handle: the
// last run moves into its place, and its handle is pointed there.
func (u *Unit) dropRunLocked(i int) {
	delete(u.runOf, u.runMeta[i].key)
	u.freeHandles = append(u.freeHandles, u.runMeta[i].handle)
	last := len(u.runs) - 1
	if i != last {
		u.runs[i], u.runMeta[i] = u.runs[last], u.runMeta[last]
		u.runOf[u.runMeta[i].key] = i
		u.runAt[u.runMeta[i].handle] = int32(i)
	}
	u.runs[last], u.runMeta[last] = nil, runMeta{}
	u.runs, u.runMeta = u.runs[:last], u.runMeta[:last]
}

// slotHandles holds the run handle of each slot of a unit's order: one byte
// a slot while every handle stored fits in one, and four once one does not.
// A node's residents share a handful of functions, and this is the one cost
// of a run that grows with its residents.
type slotHandles struct {
	narrow []uint8
	wide   []int32 // not nil once a handle past 255 was stored
}

// at returns the handle of slot's run.
func (s *slotHandles) at(slot int) int32 {
	if s.wide != nil {
		return s.wide[slot]
	}
	return int32(s.narrow[slot])
}

// set records h as the handle of slot's run.
func (s *slotHandles) set(slot int, h int32) {
	if s.wide == nil && h > math.MaxUint8 {
		s.wide = make([]int32, len(s.narrow), cap(s.narrow))
		for i, n := range s.narrow {
			s.wide[i] = int32(n)
		}
		s.narrow = nil
	}
	if s.wide != nil {
		s.wide[slot] = h
	} else {
		s.narrow[slot] = uint8(h)
	}
}

// push adds a slot at the end, its handle yet to be set.
func (s *slotHandles) push() {
	if s.wide != nil {
		s.wide = append(s.wide, 0)
	} else {
		s.narrow = append(s.narrow, 0)
	}
}

// drop removes slot as dropSlotLocked removes it from the order: the last
// slot's handle moves into it.
func (s *slotHandles) drop(slot int) {
	if s.wide != nil {
		last := len(s.wide) - 1
		s.wide[slot], s.wide = s.wide[last], s.wide[:last]
	} else {
		last := len(s.narrow) - 1
		s.narrow[slot], s.narrow = s.narrow[last], s.narrow[:last]
	}
}
