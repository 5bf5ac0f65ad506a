package placement

import (
	"errors"
	"reflect"
	"testing"
)

func TestRankOrdersByBoundaryThenFreeThenAddr(t *testing.T) {
	units := []Advert{
		{Boundary: 0.2, Free: 10, Addr: "d"},
		{Boundary: 0, Free: 5, Addr: "c"},
		{Boundary: 0, Free: 9, Addr: "b"},
		{Boundary: 0, Free: 9, Addr: "a"},
		{Boundary: 0.1, Free: 0, Addr: "e"},
	}
	Rank(units, func(a Advert) Advert { return a })
	var got []string
	for _, u := range units {
		got = append(got, u.Addr)
	}
	if want := []string{"a", "b", "c", "e", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Rank order = %v, want %v", got, want)
	}
}

// TestWalkSamplesLazily: a round's sample is drawn only when the round runs.
// The simulated cluster's random draws -- and with them every Section 5.3
// figure -- depend on a walk that ends in round one drawing one sample.
func TestWalkSamplesLazily(t *testing.T) {
	var rounds []int
	res, err := Walk(3,
		func(round int) ([]int, error) {
			rounds = append(rounds, round)
			return []int{4, 2}, nil
		},
		func(unit int) (Answer, bool, error) {
			return Answer{Admit: true, Boundary: 0}, true, nil
		},
		func(unit int) (bool, error) { return true, nil })
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if want := (Result{Unit: 4, Boundary: 0, Probed: 1, Rounds: 1}); res != want {
		t.Errorf("Walk = %+v, want %+v", res, want)
	}
	if !reflect.DeepEqual(rounds, []int{0}) {
		t.Errorf("sampled rounds %v, want only round 0", rounds)
	}
}

func TestWalkReturnsCallbackErrorsAsIs(t *testing.T) {
	boom := errors.New("boom")
	sample := func(int) ([]int, error) { return []int{0, 1}, nil }
	admit := func(int) (Answer, bool, error) { return Answer{Admit: true, Boundary: 0.3}, true, nil }
	store := func(int) (bool, error) { return true, nil }
	cases := map[string]struct {
		sample func(int) ([]int, error)
		probe  func(int) (Answer, bool, error)
		commit func(int) (bool, error)
	}{
		"sample": {func(int) ([]int, error) { return nil, boom }, admit, store},
		"probe":  {sample, func(int) (Answer, bool, error) { return Answer{}, false, boom }, store},
		"commit": {sample, admit, func(int) (bool, error) { return false, boom }},
	}
	for name, tc := range cases {
		res, err := Walk(2, tc.sample, tc.probe, tc.commit)
		if err != boom || res.Unit != -1 {
			t.Errorf("%s failing: Walk = %+v, %v; want unit -1 and the callback's error", name, res, err)
		}
	}
}

// TestWalkWithNoAnswersReportsTheCeiling: units that give no answer are
// neither candidates nor refusals.
func TestWalkWithNoAnswersReportsTheCeiling(t *testing.T) {
	res, err := Walk(2,
		func(int) ([]int, error) { return []int{0, 1, 2}, nil },
		func(int) (Answer, bool, error) { return Answer{}, false, nil },
		func(int) (bool, error) { t.Error("commit called with no candidate"); return false, nil })
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if want := (Result{Unit: -1, Boundary: 1, Probed: 3, Rounds: 2}); res != want {
		t.Errorf("Walk = %+v, want %+v", res, want)
	}
}
