package gossip

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"besteffs/internal/overlay"
)

func buildGraph(t *testing.T, n, degree int, seed int64) *overlay.Graph {
	t.Helper()
	g, err := overlay.NewRandomRegular(n, degree, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewRandomRegular: %v", err)
	}
	return g
}

func TestNewAveragerValidation(t *testing.T) {
	g := buildGraph(t, 10, 3, 1)
	rng := rand.New(rand.NewSource(2))
	if _, err := NewAverager(nil, make([]float64, 10), rng); !errors.Is(err, ErrNilGraph) {
		t.Errorf("nil graph err = %v", err)
	}
	if _, err := NewAverager(g, make([]float64, 10), nil); !errors.Is(err, ErrNilRand) {
		t.Errorf("nil rng err = %v", err)
	}
	if _, err := NewAverager(g, make([]float64, 3), rng); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("size mismatch err = %v", err)
	}
	if _, err := NewAverager(g, []float64{math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0, 0}, rng); err == nil {
		t.Error("NaN value accepted")
	}
}

func TestConvergesToMean(t *testing.T) {
	const n = 200
	g := buildGraph(t, n, 4, 3)
	rng := rand.New(rand.NewSource(4))
	values := make([]float64, n)
	trueMean := 0.0
	for i := range values {
		values[i] = rng.Float64() // per-node densities
		trueMean += values[i]
	}
	trueMean /= n

	a, err := NewAverager(g, values, rng)
	if err != nil {
		t.Fatalf("NewAverager: %v", err)
	}
	rounds, converged, err := a.Run(1e-4, 500)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !converged {
		t.Fatalf("did not converge in %d rounds (spread %v)", rounds, a.Spread())
	}
	// Push-sum converges in O(log n) rounds; allow a loose bound.
	if rounds > 200 {
		t.Errorf("took %d rounds, expected O(log n)", rounds)
	}
	for i, e := range a.Estimates() {
		if math.Abs(e-trueMean) > 1e-3 {
			t.Fatalf("node %d estimate %v, true mean %v", i, e, trueMean)
		}
	}
}

func TestMassConservation(t *testing.T) {
	const n = 64
	g := buildGraph(t, n, 3, 5)
	rng := rand.New(rand.NewSource(6))
	values := make([]float64, n)
	var wantValue float64
	for i := range values {
		values[i] = float64(i)
		wantValue += values[i]
	}
	a, err := NewAverager(g, values, rng)
	if err != nil {
		t.Fatalf("NewAverager: %v", err)
	}
	for r := 0; r < 50; r++ {
		v, w := a.Mass()
		if math.Abs(v-wantValue) > 1e-6 || math.Abs(w-float64(n)) > 1e-6 {
			t.Fatalf("round %d: mass (%v, %v), want (%v, %d)", r, v, w, wantValue, n)
		}
		if err := a.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if a.Rounds() != 50 {
		t.Errorf("Rounds = %d, want 50", a.Rounds())
	}
}

func TestUniformValuesConvergeImmediately(t *testing.T) {
	g := buildGraph(t, 20, 3, 7)
	values := make([]float64, 20)
	for i := range values {
		values[i] = 0.42
	}
	a, err := NewAverager(g, values, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatalf("NewAverager: %v", err)
	}
	rounds, converged, err := a.Run(1e-9, 10)
	if err != nil || !converged || rounds != 0 {
		t.Errorf("uniform input: rounds=%d converged=%t err=%v", rounds, converged, err)
	}
	if got := a.States()[0].Estimate(); got != 0.42 {
		t.Errorf("estimate = %v, want 0.42", got)
	}
}

func TestRunValidation(t *testing.T) {
	g := buildGraph(t, 10, 3, 9)
	a, err := NewAverager(g, make([]float64, 10), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewAverager: %v", err)
	}
	if _, _, err := a.Run(0, 10); err == nil {
		t.Error("zero eps accepted")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() []float64 {
		g := buildGraph(t, 30, 3, 11)
		values := make([]float64, 30)
		for i := range values {
			values[i] = float64(i % 5)
		}
		a, err := NewAverager(g, values, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatalf("NewAverager: %v", err)
		}
		for r := 0; r < 20; r++ {
			if err := a.Step(); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
		return a.Estimates()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("estimates diverge at node %d across identical seeds", i)
		}
	}
}

// TestChurnLossFreeStepConservesMass: a round moves mass only through
// Split and Absorb, so the totals hold to rounding however long it runs.
// Mass lost to a crashed peer is the live agent's problem, and its epoch
// reset (internal/member) is the answer to it.
func TestChurnLossFreeStepConservesMass(t *testing.T) {
	const n = 40
	g := buildGraph(t, n, 3, 41)
	rng := rand.New(rand.NewSource(42))
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	a, err := NewAverager(g, values, rng)
	if err != nil {
		t.Fatalf("NewAverager: %v", err)
	}
	v0, w0 := a.Mass()
	for r := 0; r < 30; r++ {
		if err := a.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
		v, w := a.Mass()
		if math.Abs(v-v0) > 1e-6*math.Abs(v0) || math.Abs(w-w0) > 1e-9 {
			t.Fatalf("round %d: mass (%v, %v) drifted from (%v, %v)", r, v, w, v0, w0)
		}
	}
}

// TestSplitAbsorbConserveAShare pins the two push-sum moves every cluster
// shares: Split leaves half and returns half, and Absorbing the returned
// share -- at the receiver, or back at the sender when the send failed --
// restores the total exactly.
func TestSplitAbsorbConserveAShare(t *testing.T) {
	s := State{Value: 0.75, Weight: 1}
	sent := s.Split()
	if want := (State{Value: 0.375, Weight: 0.5}); s != want || sent != want {
		t.Fatalf("Split kept %+v, sent %+v, want %+v each", s, sent, want)
	}
	peer := State{Value: 0.25, Weight: 1}
	peer.Absorb(sent)
	if want := (State{Value: 0.625, Weight: 1.5}); peer != want {
		t.Errorf("receiver after Absorb = %+v, want %+v", peer, want)
	}
	s.Absorb(sent) // the undo of a failed send
	if want := (State{Value: 0.75, Weight: 1}); s != want {
		t.Errorf("sender after undo = %+v, want %+v", s, want)
	}
}
