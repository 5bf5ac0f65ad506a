package store

import (
	"cmp"
	"slices"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// Besides its slot, every resident sits in the run of its importance
// function, in arrival order (policy.View): the planner and the expiry sweep
// read a run only as far as they need, and runs need no upkeep as time passes.

// runKeyLocked returns the key of o's run in u.key: the encoding of its
// importance function, since equal encodings are equal functions. A function
// without an encoding (a type foreign to package importance) gets a run of
// its own under the object's ID; no encoding starts with a zero byte, so that
// key collides with none.
func (u *Unit) runKeyLocked(o *object.Object) []byte {
	k, err := importance.AppendEncode(u.key[:0], o.Importance)
	if err != nil {
		k = append(append(u.key[:0], 0), o.ID...)
	}
	u.key = k
	return k
}

// linkRunLocked appends o to its run. A live or replayed put arrives no
// earlier than the newest of its run. An older arrival (a replica's, a
// restored checkpoint's) marks the run for one sort before the runs are next
// read, so that a bulk restore is not quadratic.
func (u *Unit) linkRunLocked(o *object.Object) {
	k := u.runKeyLocked(o)
	i, ok := u.runOf[string(k)]
	if !ok {
		i = len(u.runs)
		u.runOf[string(k)] = i
		u.runs = append(u.runs, nil)
	}
	run := u.runs[i]
	if len(run) > 0 && o.Arrival < run[len(run)-1].Arrival {
		u.unsorted = append(u.unsorted, i)
	}
	u.runs[i] = append(run, o)
}

// relinkRunLocked puts o back at index j of its run, where unlinkRunLocked
// took it from, so that the run stays in order.
func (u *Unit) relinkRunLocked(o *object.Object, j int) {
	if i, ok := u.runOf[string(u.runKeyLocked(o))]; ok {
		u.runs[i] = slices.Insert(u.runs[i], j, o)
		return
	}
	u.linkRunLocked(o)
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

// unlinkRunLocked takes the resident o out of its run and returns the index it
// held there: by reslicing when it is the head, as a victim usually is, and
// otherwise by its arrival. An emptied run is dropped, so there are never more
// runs than residents.
func (u *Unit) unlinkRunLocked(o *object.Object) int {
	u.settleLocked()
	k := u.runKeyLocked(o)
	i := u.runOf[string(k)]
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
	if len(run) > 0 {
		return j
	}
	delete(u.runOf, string(k))
	last := len(u.runs) - 1
	if i != last {
		u.runs[i] = u.runs[last]
		u.runOf[string(u.runKeyLocked(u.runs[i][0]))] = i
	}
	u.runs[last] = nil
	u.runs = u.runs[:last]
	return j
}
