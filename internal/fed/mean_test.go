package fed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedpower/internal/nn"
)

// meanCaseParams is the length of the vectors meanCaseValue fills: every
// column kind below, twice.
const meanCaseParams = 2 * 14

// meanCaseValue is parameter j of client i's update in round r. The columns
// cover what an exact mean must survive: float64 sums that round (the
// in-process updates are not float32 values, so ParamSum's TwoSum test
// sends these to its accumulators), summands 2^60 apart, zeros of both
// signs, subnormals, ±MaxFloat64 sums that overflow or cancel, and ±Inf
// and NaN tallies — next to columns whose sums stay exact, so the clean
// path runs beside the dirty one.
func meanCaseValue(i, r, j int) float64 {
	negZero := math.Copysign(0, -1)
	switch j % 14 {
	case 0: // inexact sums
		return 0.1*float64(i+1) + float64(r)/3
	case 1:
		return float64(7*i+r+1) / 3
	case 2: // 2^60 apart
		if i%2 == 0 {
			return math.Ldexp(1+float64(r), 60)
		}
		return 1 + float64(i)/7
	case 3: // exact small integers: the clean path
		return float64(i - r)
	case 4: // -0 from every client
		return negZero
	case 5: // both zeros
		if (i+r)%2 == 0 {
			return negZero
		}
		return 0
	case 6: // subnormals of both signs
		v := math.SmallestNonzeroFloat64 * float64(3*i+r+1)
		if (i+j)%3 == 1 {
			v = -v
		}
		return v
	case 7: // the largest subnormal and the smallest normal
		if i%2 == 0 {
			return math.Float64frombits(0x000fffffffffffff)
		}
		return -0x1p-1022
	case 8: // MaxFloat64 from everyone: the sum overflows past two clients
		return math.MaxFloat64
	case 9: // ±MaxFloat64 that cancel
		if (i+r)%2 == 0 {
			return -math.MaxFloat64
		}
		return math.MaxFloat64
	case 10: // +Inf from one client
		if i == r%3 {
			return math.Inf(1)
		}
		return 1.5
	case 11: // both infinities
		switch i % 3 {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		}
		return 2
	case 12: // a NaN from one client in some rounds
		if i == 0 && r%2 == 1 {
			return math.NaN()
		}
		return float64(i) * 0.25
	default: // a large magnitude beside small ones: dirty in most rounds
		if i == r%4 {
			return 1e300
		}
		return 1e-300 * float64(i+1)
	}
}

// meanClient returns meanCaseValue's vector for its index and records, per
// round, the update it delivered (nil when it failed or was not drawn).
// Each client is touched only by its own worker, and the hook reads the
// record after the round's fan-out has joined.
type meanClient struct {
	index     int
	failRound func(r int) bool
	sent      map[int][]float64
}

func (c *meanClient) TrainRound(round int, global []float64) ([]float64, error) {
	if c.failRound != nil && c.failRound(round) {
		return nil, fmt.Errorf("client %d fails round %d", c.index, round)
	}
	v := make([]float64, meanCaseParams)
	for j := range v {
		v[j] = meanCaseValue(c.index, round, j)
	}
	c.sent[round] = v
	return v, nil
}

// TestEngineMeanMatchesAverageParams is the differential test of the
// in-process engine's mean: through Run, RunParallel, RunSampled and
// RunWithConfig (DropRound, one client failing every third round), over
// 1, 2, 3 and 16 clients, every round's committed global model equals, bit
// for bit, nn.AverageParams over exactly that round's survivors in client
// order. NaNs are compared by their bits too: on both sides a NaN sum
// comes from Accum.Round, so the payloads agree.
func TestEngineMeanMatchesAverageParams(t *testing.T) {
	const rounds = 7
	entries := []struct {
		name  string
		fails bool // one client fails every third round (DropRound only)
		run   func(global []float64, clients []Client, hook RoundHook) error
	}{
		{"Run", false, func(g []float64, c []Client, h RoundHook) error { return Run(g, c, rounds, h) }},
		{"RunParallel", false, func(g []float64, c []Client, h RoundHook) error { return RunParallel(g, c, rounds, 3, h) }},
		{"RunSampled", false, func(g []float64, c []Client, h RoundHook) error {
			return RunSampled(g, c, 0.5, rounds, rand.New(rand.NewSource(int64(len(c)))), h)
		}},
		{"RunWithConfig", true, func(g []float64, c []Client, h RoundHook) error {
			return RunWithConfig(g, c, RunConfig{Rounds: rounds, Quorum: 1, OnClientError: DropRound, Parallelism: 2, Hook: h})
		}},
	}
	for _, e := range entries {
		for _, n := range []int{1, 2, 3, 16} {
			t.Run(fmt.Sprintf("%s/%d", e.name, n), func(t *testing.T) {
				mcs := make([]*meanClient, n)
				clients := make([]Client, n)
				for i := range mcs {
					mcs[i] = &meanClient{index: i, sent: map[int][]float64{}}
					if e.fails && n > 1 && i == n/2 {
						mcs[i].failRound = func(r int) bool { return r%3 == 2 }
					}
					clients[i] = mcs[i]
				}
				want := make([]float64, meanCaseParams)
				checked := 0
				hook := func(r int, global []float64) {
					var survivors [][]float64
					for _, c := range mcs {
						if v := c.sent[r]; v != nil {
							survivors = append(survivors, v)
						}
					}
					nn.AverageParams(want, survivors...)
					for j := range want {
						if g, w := math.Float64bits(global[j]), math.Float64bits(want[j]); g != w {
							t.Errorf("round %d, %d survivors: param %d = %#016x (%g), AverageParams %#016x (%g)",
								r, len(survivors), j, g, global[j], w, want[j])
						}
					}
					checked++
				}
				if err := e.run(make([]float64, meanCaseParams), clients, hook); err != nil {
					t.Fatal(err)
				}
				if checked != rounds {
					t.Fatalf("%d rounds checked, want %d", checked, rounds)
				}
			})
		}
	}
}
