package replay

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

func TestAddAndLen(t *testing.T) {
	b := New(3)
	if b.Len() != 0 || b.Cap() != 3 {
		t.Fatalf("fresh buffer: len=%d cap=%d", b.Len(), b.Cap())
	}
	b.Add([]float64{1}, 0, 0.5)
	b.Add([]float64{2}, 1, 0.6)
	if b.Len() != 2 {
		t.Fatalf("after 2 adds: len=%d", b.Len())
	}
	b.Add([]float64{3}, 2, 0.7)
	if b.Len() != 3 {
		t.Fatalf("len=%d, want 3", b.Len())
	}
}

func TestEvictionKeepsMostRecent(t *testing.T) {
	b := New(3)
	for i := 0; i < 5; i++ {
		b.Add([]float64{float64(i)}, i, float64(i))
	}
	if b.Len() != 3 {
		t.Fatalf("len=%d after wrap, want 3", b.Len())
	}
	// The most recent C samples are 2, 3, 4 (in ring positions).
	seen := map[int]bool{}
	for i := 0; i < b.Len(); i++ {
		seen[b.At(i).Action] = true
	}
	for _, want := range []int{2, 3, 4} {
		if !seen[want] {
			t.Errorf("sample with action %d evicted too early; kept %v", want, seen)
		}
	}
	for _, gone := range []int{0, 1} {
		if seen[gone] {
			t.Errorf("sample with action %d should have been evicted", gone)
		}
	}
}

func TestAddCopiesState(t *testing.T) {
	b := New(2)
	state := []float64{1, 2}
	b.Add(state, 0, 0)
	state[0] = 99
	if b.At(0).State[0] != 1 {
		t.Fatal("buffer retained caller's state slice")
	}
}

func TestSampleFromEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample from empty buffer did not panic")
		}
	}()
	New(4).Sample(rand.New(rand.NewSource(1)), 1, nil)
}

func TestSampleSizeAndReuse(t *testing.T) {
	b := New(10)
	for i := 0; i < 10; i++ {
		b.Add([]float64{float64(i)}, i, 0)
	}
	rng := rand.New(rand.NewSource(1))
	dst := b.Sample(rng, 4, nil)
	if len(dst) != 4 {
		t.Fatalf("sample size %d, want 4", len(dst))
	}
	dst2 := b.Sample(rng, 4, dst)
	if &dst2[0] != &dst[0] {
		t.Fatal("Sample reallocated although dst had capacity")
	}
}

func TestSampleUniformity(t *testing.T) {
	// With 4 stored samples and many draws, each should appear with
	// frequency ~1/4.
	b := New(4)
	for i := 0; i < 4; i++ {
		b.Add([]float64{0}, i, 0)
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 4)
	const draws = 40000
	batch := make([]Sample, 100)
	for d := 0; d < draws/100; d++ {
		for _, s := range b.Sample(rng, 100, batch) {
			counts[s.Action]++
		}
	}
	for a, c := range counts {
		frac := float64(c) / draws
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("action %d sampled with frequency %.3f, want ~0.25", a, frac)
		}
	}
}

func TestAtBoundsPanics(t *testing.T) {
	b := New(2)
	b.Add([]float64{1}, 0, 0)
	for _, i := range []int{-1, 1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			b.At(i)
		}()
	}
}

func TestFootprintMatchesPaper(t *testing.T) {
	// Paper §IV-C: the replay buffer "requires an additional 100 kB of
	// storage". C=4000 samples × (5 features + action + reward) × 4 B =
	// 112000 B ≈ 100 kB.
	b := New(4000)
	got := b.Footprint(5)
	if got != 112000 {
		t.Fatalf("Footprint = %d, want 112000", got)
	}
}

func TestReset(t *testing.T) {
	b := New(2)
	b.Add([]float64{1}, 0, 0)
	b.Add([]float64{2}, 1, 0)
	b.Add([]float64{3}, 0, 0)
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("after reset: len=%d", b.Len())
	}
	b.Add([]float64{4}, 1, 0.25)
	if b.Len() != 1 || b.At(0).Reward != 0.25 {
		t.Fatal("buffer unusable after reset")
	}
}

// Property: Len never exceeds Cap and equals min(adds, Cap).
func TestLenInvariantProperty(t *testing.T) {
	f := func(capRaw uint8, adds uint16) bool {
		capacity := int(capRaw%50) + 1
		b := New(capacity)
		n := int(adds % 500)
		for i := 0; i < n; i++ {
			b.Add([]float64{float64(i)}, 0, 0)
		}
		want := n
		if want > capacity {
			want = capacity
		}
		return b.Len() == want && b.Len() <= b.Cap()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: sampled elements are always elements currently in the buffer.
func TestSampleMembershipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		capacity := rng.Intn(20) + 1
		b := New(capacity)
		total := rng.Intn(60) + 1
		for i := 0; i < total; i++ {
			b.Add([]float64{float64(i)}, i, float64(i))
		}
		lo := total - capacity
		if lo < 0 {
			lo = 0
		}
		for _, s := range b.Sample(rng, 50, nil) {
			if s.Action < lo || s.Action >= total {
				t.Fatalf("sampled action %d outside live window [%d, %d)", s.Action, lo, total)
			}
		}
	}
}

// TestAddReusesEvictedStateStorage: once the ring has wrapped, Add must
// recycle the evicted sample's state storage instead of allocating a fresh
// slice per sample forever — and the recycled slot must hold exactly the
// new sample.
func TestAddReusesEvictedStateStorage(t *testing.T) {
	b := New(3)
	for i := 0; i < 5; i++ {
		b.Add([]float64{float64(i), float64(-i)}, i, float64(i)/2)
	}
	// Ring of 3 after 5 adds: slots 0 and 1 overwritten in place by
	// samples 3 and 4, slot 2 still holding sample 2.
	for i, want := range []int{3, 4, 2} {
		s := b.At(i)
		if s.Action != want || s.State[0] != float64(want) || s.State[1] != float64(-want) || s.Reward != float64(want)/2 {
			t.Fatalf("slot %d = %+v, want sample %d", i, s, want)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		b.Add([]float64{1, 2}, 1, 0.5)
	}); avg != 0 {
		t.Errorf("steady-state Add allocates %.1f times per call, want 0", avg)
	}
}

// TestAddReuseHandlesDimensionChange: a wider state than the evicted slot
// can hold must fall back to a fresh copy, never a truncated one.
func TestAddReuseHandlesDimensionChange(t *testing.T) {
	b := New(2)
	b.Add([]float64{1}, 0, 0)
	b.Add([]float64{2}, 1, 0)
	b.Add([]float64{3, 4, 5}, 2, 0) // evicts the 1-wide slot
	s := b.At(0)
	if len(s.State) != 3 || s.State[0] != 3 || s.State[2] != 5 {
		t.Fatalf("recycled slot = %+v, want the full 3-wide state", s)
	}
	b.Add([]float64{6}, 3, 0) // narrower than the evicted 1-wide slot? slot 1 holds {2}
	if got := b.At(1); len(got.State) != 1 || got.State[0] != 6 {
		t.Fatalf("recycled slot = %+v, want the 1-wide state {6}", got)
	}
}

// TestSampleIntoMatchesSample: SampleInto must perform the same draws from
// the same rng stream as Sample and scatter exactly the same data into the
// column layout.
func TestSampleIntoMatchesSample(t *testing.T) {
	const dim, batch = 3, 17
	build := func() *Buffer {
		b := New(8)
		for i := 0; i < 13; i++ {
			b.Add([]float64{float64(i), float64(2 * i), float64(-i)}, i%5, float64(i)/8)
		}
		return b
	}
	want := build().Sample(rand.New(rand.NewSource(42)), batch, nil)

	states := make([]float64, batch*dim)
	actions := make([]int, batch)
	rewards := make([]float64, batch)
	build().SampleInto(rand.New(rand.NewSource(42)), states, actions, rewards)

	for i := 0; i < batch; i++ {
		if actions[i] != want[i].Action || rewards[i] != want[i].Reward {
			t.Fatalf("draw %d: (action, reward) = (%d, %v), want (%d, %v)", i, actions[i], rewards[i], want[i].Action, want[i].Reward)
		}
		for j := 0; j < dim; j++ {
			if states[i*dim+j] != want[i].State[j] {
				t.Fatalf("draw %d: state[%d] = %v, want %v", i, j, states[i*dim+j], want[i].State[j])
			}
		}
	}
}

// TestSampleIntoValidation: the panics that guard the packed layout.
func TestSampleIntoValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	b := New(4)
	expectPanic("empty buffer", func() {
		b.SampleInto(rng, make([]float64, 2), make([]int, 2), make([]float64, 2))
	})
	b.Add([]float64{1, 2}, 0, 0)
	expectPanic("empty batch", func() {
		b.SampleInto(rng, nil, nil, nil)
	})
	expectPanic("rewards length", func() {
		b.SampleInto(rng, make([]float64, 4), make([]int, 2), make([]float64, 1))
	})
	expectPanic("indivisible matrix", func() {
		b.SampleInto(rng, make([]float64, 5), make([]int, 2), make([]float64, 2))
	})
	expectPanic("dimension mismatch", func() {
		b.SampleInto(rng, make([]float64, 6), make([]int, 2), make([]float64, 2))
	})
}
