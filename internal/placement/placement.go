// Package placement states the paper's distributed placement decision
// (Section 5.3) once, for every cluster that runs it: sample x storage units,
// probe each for the highest importance it would preempt, retry for up to m
// rounds, store at once on a unit whose boundary is zero and otherwise on
// the admitting unit with the lowest boundary. The simulated cluster
// (internal/cluster) supplies overlay random walks and in-memory units; the
// live one (internal/client) its membership view, PROBE and PUT round trips
// and circuit-breaker bookkeeping. Both run Walk; wherever the live cluster
// prefers one peer over another before probing, it sorts with Rank.
//
// The package knows nothing of stores, wire messages or transports: a unit
// is an index, and everything else is a callback.
package placement

import "sort"

// Answer is one unit's reply to a probe.
type Answer struct {
	// Admit reports whether the unit would store the object.
	Admit bool
	// Boundary is the highest importance the unit would preempt to do so
	// (zero when free space suffices, and never weighted by victim sizes);
	// for a refusal, the importance that stands in the way.
	Boundary float64
}

// Result is the outcome of one Walk.
type Result struct {
	// Unit is the unit that stored the object, or -1 when none did.
	Unit int
	// Boundary is the boundary Unit answered its probe with. When no unit
	// stored the object it is the lowest boundary a refusing unit answered
	// -- what the object would have needed to exceed -- or 1 if none did.
	Boundary float64
	// Probed is the number of distinct units probed.
	Probed int
	// Rounds is the number of sampling rounds run.
	Rounds int
}

// Walk runs one placement. Each of up to rounds rounds calls sample for that
// round's units -- lazily, so a walk that ends early draws no further
// samples -- and probes every unit not probed before. A unit admitting at
// boundary zero is committed to on the spot; if no such commit stores the
// object, the admitting units are committed to in ascending boundary order
// (first probed first among equals) until one does.
//
// probe returns ok=false for a unit that gave no answer, commit
// stored=false for one that turned the object down after all or could not
// be reached; the walk passes over both. An error from any callback aborts
// the walk and is returned as is.
func Walk(
	rounds int,
	sample func(round int) ([]int, error),
	probe func(unit int) (a Answer, ok bool, err error),
	commit func(unit int) (stored bool, err error),
) (Result, error) {
	type candidate struct {
		unit     int
		boundary float64
	}
	var admitting []candidate
	res := Result{Unit: -1, Boundary: 1}
	try := func(c candidate) (stored bool, err error) {
		if stored, err = commit(c.unit); stored {
			res.Unit, res.Boundary = c.unit, c.boundary
		}
		return stored, err
	}
	probed := make(map[int]bool)
	for round := 0; round < rounds; round++ {
		res.Rounds++
		units, err := sample(round)
		if err != nil {
			return res, err
		}
		for _, u := range units {
			if probed[u] {
				continue
			}
			probed[u] = true
			res.Probed++
			a, ok, err := probe(u)
			if err != nil {
				return res, err
			}
			if !ok {
				continue
			}
			switch {
			case !a.Admit:
				if a.Boundary < res.Boundary {
					res.Boundary = a.Boundary
				}
			case a.Boundary == 0:
				// No later round can do better than free space.
				if stored, err := try(candidate{u, 0}); stored || err != nil {
					return res, err
				}
			default:
				admitting = append(admitting, candidate{u, a.Boundary})
			}
		}
	}
	sort.SliceStable(admitting, func(i, j int) bool { return admitting[i].boundary < admitting[j].boundary })
	for _, c := range admitting {
		if stored, err := try(c); stored || err != nil {
			return res, err
		}
	}
	return res, nil
}

// Advert is the placement state a unit advertises ahead of any probe.
type Advert struct {
	// Boundary is the importance a put would currently have to exceed.
	Boundary float64
	// Free is the unit's unallocated bytes.
	Free int64
	// Addr identifies the unit and breaks the remaining ties.
	Addr string
}

// Rank sorts units most attractive first: lowest advertised boundary, then
// most free bytes, then address. While a cluster has free space every
// boundary is zero, and it is the free-bytes key that spreads the load.
func Rank[T any](units []T, advert func(T) Advert) {
	sort.SliceStable(units, func(i, j int) bool {
		a, b := advert(units[i]), advert(units[j])
		if a.Boundary != b.Boundary {
			return a.Boundary < b.Boundary
		}
		if a.Free != b.Free {
			return a.Free > b.Free
		}
		return a.Addr < b.Addr
	})
}
