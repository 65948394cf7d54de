// Package replay implements the experience replay buffer of Algorithm 1: a
// fixed-capacity ring that stores the C most recent (state, action, reward)
// samples from the power controller's interaction with the processor and
// serves uniformly sampled mini-batches for the policy-network update.
//
// The buffer is strictly local to a device — in the federated protocol its
// contents never leave the device; only model parameters do.
package replay

import (
	"fmt"
	"math/rand"
)

// Sample is one interaction with the processor: the observed state, the
// V/f level chosen (as an action index), and the reward computed from the
// subsequent observation.
type Sample struct {
	State  []float64
	Action int
	Reward float64
}

// Buffer is a fixed-capacity ring buffer of Samples. Once full, new samples
// overwrite the oldest ones, so the buffer always holds the most recent C
// interactions. The zero value is not usable; construct with New.
type Buffer struct {
	data []Sample
	next int
}

// New returns an empty buffer with the given capacity (the paper's C,
// default 4000). It panics on a non-positive capacity.
func New(capacity int) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("replay: invalid capacity %d", capacity))
	}
	return &Buffer{data: make([]Sample, 0, capacity)}
}

// Add appends a sample, evicting the oldest one when the buffer is full. The
// state slice is copied so callers may reuse their buffer. Once the ring is
// full, the evicted sample's state storage is recycled for the new sample
// (when the dimensions allow), so steady-state Add performs no allocations
// (TestAddReusesEvictedStateStorage pins this); the flip side is that a
// Sample or At result's State aliases ring storage that is rewritten when
// the ring wraps back to its slot — copy it out to outlive the wrap
// (SampleInto does).
//
//fedlint:allocfree
func (b *Buffer) Add(state []float64, action int, reward float64) {
	if len(b.data) < cap(b.data) {
		b.data = append(b.data, Sample{State: append([]float64(nil), state...), Action: action, Reward: reward})
		return
	}
	s := &b.data[b.next]
	if cap(s.State) >= len(state) {
		s.State = s.State[:len(state)]
		copy(s.State, state)
	} else {
		s.State = append([]float64(nil), state...)
	}
	s.Action = action
	s.Reward = reward
	b.next = (b.next + 1) % cap(b.data)
}

// Len returns the number of samples currently stored.
func (b *Buffer) Len() int { return len(b.data) }

// Cap returns the buffer capacity C.
func (b *Buffer) Cap() int { return cap(b.data) }

// Sample draws n samples uniformly at random with replacement into dst and
// returns it (allocating when dst is too small). Sampling with replacement
// matches the standard replay formulation and keeps the draw O(n). The
// drawn Samples' State slices alias ring storage that is recycled when the
// ring wraps back to their slots (see Add); consume or copy them before
// adding Cap more samples. It panics when the buffer is empty.
func (b *Buffer) Sample(rng *rand.Rand, n int, dst []Sample) []Sample {
	if len(b.data) == 0 {
		panic("replay: Sample from empty buffer")
	}
	if cap(dst) < n {
		dst = make([]Sample, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = b.data[rng.Intn(len(b.data))]
	}
	return dst
}

// SampleInto draws len(actions) samples uniformly at random with
// replacement — the same draws, from the same rng stream, as Sample — and
// scatters them into caller storage: states is a flat row-major
// [batch × dim] state matrix (one copied state per row; nn.BatchStates
// hands out exactly this shape), with the matching action and reward per
// sample in actions and rewards. No per-sample Sample structs are
// materialised and the copied rows are immune to the ring recycling their
// source storage on a later Add. The row dimension is len(states) divided
// by the batch size and must match every drawn sample's state length. It
// panics when the buffer or the batch is empty.
//
//fedlint:allocfree
func (b *Buffer) SampleInto(rng *rand.Rand, states []float64, actions []int, rewards []float64) {
	n := len(actions)
	if n == 0 {
		panic("replay: SampleInto with an empty batch")
	}
	if len(rewards) != n {
		panic(fmt.Sprintf("replay: SampleInto rewards length %d, want %d", len(rewards), n))
	}
	if len(b.data) == 0 {
		panic("replay: SampleInto from empty buffer")
	}
	dim := len(states) / n
	if dim*n != len(states) {
		panic(fmt.Sprintf("replay: SampleInto state matrix length %d not divisible by batch %d", len(states), n))
	}
	for i := 0; i < n; i++ {
		s := &b.data[rng.Intn(len(b.data))]
		if len(s.State) != dim {
			panic(fmt.Sprintf("replay: SampleInto state dimension %d, want %d", len(s.State), dim))
		}
		copy(states[i*dim:(i+1)*dim], s.State)
		actions[i] = s.Action
		rewards[i] = s.Reward
	}
}

// At returns the i-th stored sample in insertion-ring order. It is intended
// for tests and diagnostics; training code should use Sample.
func (b *Buffer) At(i int) Sample {
	if i < 0 || i >= len(b.data) {
		panic(fmt.Sprintf("replay: index %d out of range [0,%d)", i, len(b.data)))
	}
	return b.data[i]
}

// Footprint returns the storage footprint of a full buffer in bytes, using
// the on-device float32 representation the paper assumes (4 bytes per state
// feature and per reward, 4 bytes per action index). For the paper's
// configuration — C = 4000, 5 state features — this is 112 kB, the "roughly
// 100 kB of storage" reported in §IV-C.
func (b *Buffer) Footprint(stateDim int) int {
	return b.Cap() * (4*stateDim + 4 + 4)
}

// Reset discards all stored samples but keeps the capacity.
func (b *Buffer) Reset() {
	b.data = b.data[:0]
	b.next = 0
}
