package fed

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"fedpower/internal/nn"
)

// Bit-identity of the parallel aggregation plane. The server's Parallelism
// knob changes only scheduling — which worker encodes which broadcast,
// reads which update, folds which contribution chunk — never arithmetic:
// the exact accumulator makes sharded sums an identity, and each
// connection's codec streams are touched only by the worker holding its
// index. These tests pin that contract at every width, per codec, for the
// flat TCP server and the in-process tree; scripts/check.sh runs them
// twice (-count=2) inside the determinism gate.

// paraTrainer is a pure function of (device, round, parameter): the TCP
// runs at different widths must feed aggregation byte-identical updates.
func paraTrainer(id int) ClientFunc {
	return func(round int, global []float64) ([]float64, error) {
		out := make([]float64, len(global))
		for i, g := range global {
			h := splitmix(uint64(id)*0x100000001b3 + uint64(round)<<32 + uint64(i))
			step := math.Ldexp(float64(h>>40)/float64(1<<24), int(h%19)-9)
			if h>>39&1 == 1 {
				step = -step
			}
			out[i] = g + step
		}
		return out, nil
	}
}

// paramBits snapshots a parameter vector's exact bit patterns.
func paramBits(params []float64) []uint64 {
	bits := make([]uint64, len(params))
	for i, p := range params {
		bits[i] = math.Float64bits(p)
	}
	return bits
}

// participate dials n devices into srv, each running the trainer made for
// its ID to the end of the protocol, and returns a function that waits for
// them and reports their errors by ID.
func participate(srv *Server, codec Codec, n int, trainer func(id int) ClientFunc) (wait func() []error) {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for d := 0; d < n; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			conn, err := DialCodec(srv.Addr(), uint32(d), codec)
			if err != nil {
				errs[d] = err
				return
			}
			defer conn.Close()
			_, errs[d] = conn.Participate(trainer(d))
		}(d)
	}
	return func() []error {
		wg.Wait()
		return errs
	}
}

// runParallelFederation drives one TCP federation of 8 devices at the
// given worker width and returns every round's global model bits plus the
// final model's.
func runParallelFederation(t *testing.T, codec Codec, width int) [][]uint64 {
	t.Helper()
	const devices, rounds, params = 8, 3, 33
	srv := startServer(t, devices, rounds)
	srv.Codec = codec
	srv.Parallelism = width

	wait := participate(srv, codec, devices, paraTrainer)

	initial := make([]float64, params)
	for i := range initial {
		initial[i] = float64(i) / 7
	}
	var history [][]uint64
	final, err := srv.Serve(initial, func(round int, g []float64) {
		history = append(history, paramBits(g))
	})
	errs := wait()
	if err != nil {
		t.Fatal(err)
	}
	for d, err := range errs {
		if err != nil {
			t.Fatalf("device %d: %v", d, err)
		}
	}
	return append(history, paramBits(final))
}

// compareHistories fails on the first bit mismatch between two runs.
func compareHistories(t *testing.T, label string, ref, got [][]uint64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d aggregations, reference has %d", label, len(got), len(ref))
	}
	for r := range ref {
		for i := range ref[r] {
			if ref[r][i] != got[r][i] {
				t.Fatalf("%s: round %d param %d = %#x, reference %#x",
					label, r+1, i, got[r][i], ref[r][i])
			}
		}
	}
}

// TestParallelAggregationBitIdentical runs the same federation at widths
// 1, 2 and 8 under each codec family — dense, delta (stateful shadows),
// quant8 (stochastic per-stream rounding) — and requires every round's
// aggregated model to match the sequential run bit for bit.
func TestParallelAggregationBitIdentical(t *testing.T) {
	q8, err := QuantCodec(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []Codec{DenseCodec(), DeltaCodec(), q8} {
		t.Run(codec.String(), func(t *testing.T) {
			ref := runParallelFederation(t, codec, 1)
			for _, width := range []int{2, 8} {
				got := runParallelFederation(t, codec, width)
				compareHistories(t, fmt.Sprintf("width %d", width), ref, got)
			}
		})
	}
}

// TestParallelAggregationTreeBitIdentical pins the same property for the
// in-process hierarchical runner: RunTree's Parallelism fans both leaf
// training and subtree sums, and every width must reproduce the width-1
// tree bit for bit.
func TestParallelAggregationTreeBitIdentical(t *testing.T) {
	topo, err := ParseTopology("2x2x2")
	if err != nil {
		t.Fatal(err)
	}
	const rounds, params = 3, 33
	clients := make([]Client, topo.LeafCount())
	for i := range clients {
		clients[i] = paraTrainer(i)
	}
	run := func(width int) [][]uint64 {
		global := make([]float64, params)
		for i := range global {
			global[i] = float64(i) / 7
		}
		var history [][]uint64
		err := RunTree(global, clients, topo, TreeConfig{
			Rounds:      rounds,
			Parallelism: width,
			Codec:       DenseCodec(),
			Hook:        func(round int, g []float64) { history = append(history, paramBits(g)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return history
	}
	ref := run(1)
	for _, width := range []int{2, 8} {
		compareHistories(t, fmt.Sprintf("tree width %d", width), ref, run(width))
	}
}

// TestTreeAggregateAllocFree: one interior-node aggregation step at the
// paper's model size — merging the relay blocks of N child subtrees and
// rounding the mean — allocates nothing at any fan-out; the sum and the
// output model are reused across rounds, as in Server.Serve and the
// Aggregator's relay round. Every other child's sum is dirty, so the
// blocks mix entries that enter the lead with entries that are decoded
// into an accumulator.
func TestTreeAggregateAllocFree(t *testing.T) {
	params := benchParams()
	spill := make([]float64, len(params))
	for i := range spill {
		spill[i] = 0x1p70
	}
	for _, fanout := range []int{2, 4, 8, 16} {
		contribs := make([]contribution, fanout)
		for c := range contribs {
			child := nn.NewParamSum(len(params))
			child.Add(params)
			if c%2 == 1 {
				child.Add(spill)
			}
			contribs[c] = contribution{sums: child.AppendWire(nil), leaves: 25}
		}
		sum := nn.NewParamSum(len(params))
		global := make([]float64, len(params))
		if avg := testing.AllocsPerRun(20, func() {
			sum.Mean(global, accumulate(sum, contribs))
		}); avg != 0 {
			t.Errorf("fan-out %d: %.1f allocs per aggregation step, want 0", fanout, avg)
		}
	}
}

// TestRelayHopAllocFree: one aggregator relay round at the paper's model
// size allocates nothing once its buffers are sized — the aggregator sums
// its leaves' updates (accumulate), encodes the relay frame into its
// reused codec scratch (writeMessage), and the root reads and scans the
// frame (readMessage) and merges its block (accumulate's AddWire) before
// rounding the mean. One leaf's update spills, so a dirty parameter
// crosses the hop too.
func TestRelayHopAllocFree(t *testing.T) {
	params := benchParams()
	const leaves = 4
	contribs := make([]contribution, leaves)
	for l := range contribs {
		v := make([]float64, len(params))
		for i, p := range params {
			v[i] = float64(float32(p * float64(l+1)))
		}
		if l == leaves-1 {
			v[0] = 0x1p70
		}
		contribs[l] = contribution{params: v, leaves: 1}
	}
	agg, root := nn.NewParamSum(len(params)), nn.NewParamSum(len(params))
	global := make([]float64, len(params))
	tx, rx := newCodecState(DenseCodec(), streamUp), newCodecState(DenseCodec(), streamUp)
	var wire bytes.Buffer
	w := bufio.NewWriter(&wire)
	var src bytes.Reader
	r := bufio.NewReader(&src)
	var m message
	var up [1]contribution
	if avg := testing.AllocsPerRun(50, func() {
		total := accumulate(agg, contribs[:])
		wire.Reset()
		if _, err := tx.writeMessage(w, message{kind: msgRelay, round: 1, leaves: total, sum: agg}); err != nil {
			panic(err)
		}
		src.Reset(wire.Bytes())
		r.Reset(&src)
		if _, err := rx.readMessage(r, &m); err != nil {
			panic(err)
		}
		up[0] = contribution{sums: m.block, leaves: m.leaves}
		root.Mean(global, accumulate(root, up[:]))
	}); avg != 0 {
		t.Errorf("%.1f allocs per relay round, want 0", avg)
	}
	want := make([]float64, len(params))
	flat := nn.NewParamSum(len(params))
	flat.Mean(want, accumulate(flat, contribs))
	for i := range want {
		if math.Float64bits(global[i]) != math.Float64bits(want[i]) {
			t.Fatalf("param %d: relayed mean %v, flat mean %v", i, global[i], want[i])
		}
	}
}

// TestServerRoundAllocFree: a complete federated round — admit, broadcast
// encode+write, collect read+decode, exact accumulate, mean — over real TCP
// loopback at the paper's model size allocates nothing, on the server or
// the devices: the session's persistent round workers, cap-guarded scratch
// and per-connection codec state keep the whole plane off the heap. The
// flat cases put 8 in-process devices on one server; the relay case puts a
// root over 2 Aggregators of 4 devices each, so the relay hop — the
// aggregator's child round, the exact sums' wire encoding, the root's relay
// decode and merge — is held to the same bound. Serve owns the round loop,
// so the process's malloc counter is read from the aggregation hook, after
// warm-up rounds and again before the last round (whose done frames do
// allocate), and averaged per round as testing.AllocsPerRun does: the Go
// runtime's own few dozen allocations per run round to zero, one per round
// does not.
//
// All deadlines are zero by design: SetReadDeadline/SetWriteDeadline
// allocate runtime timers, and this test pins the aggregation plane, not
// the fault plane.
func TestServerRoundAllocFree(t *testing.T) {
	const warm, measured = 20, 300
	for _, tc := range []struct {
		name          string
		codec         Codec
		aggs, devices int // devices per aggregator, or on the root when aggs == 0
	}{
		{"dense", DenseCodec(), 0, 8},
		{"quant8", mustQuant(t, 8), 0, 8},
		{"relay 2x4 dense", DenseCodec(), 2, 4},
	} {
		codec := tc.codec
		initial := benchParams()
		// The trainer reuses one buffer: Participate only encodes the
		// returned slice, so the device side of a round is allocation-free
		// too.
		trainer := func(int) ClientFunc {
			buf := make([]float64, len(initial))
			return func(round int, global []float64) ([]float64, error) {
				copy(buf, global)
				return buf, nil
			}
		}

		var waits []func() []error
		var srv *Server
		if tc.aggs == 0 {
			srv = startServer(t, tc.devices, warm+measured+1)
			srv.Codec = codec
			waits = append(waits, participate(srv, codec, tc.devices, trainer))
		} else {
			srv = startServer(t, tc.aggs, warm+measured+1)
			srv.Codec = codec
			aggErrs := make([]error, tc.aggs)
			var wg sync.WaitGroup
			for a := 0; a < tc.aggs; a++ {
				agg, err := NewAggregator("127.0.0.1:0", tc.devices)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { agg.Close() })
				agg.Parent, agg.ID, agg.Uplink = srv.Addr(), uint32(100+a), codec
				agg.Children.Codec = codec
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					_, aggErrs[a] = agg.Run()
				}(a)
				waits = append(waits, participate(agg.Children, codec, tc.devices, trainer))
			}
			waits = append(waits, func() []error {
				wg.Wait()
				return aggErrs
			})
		}

		var before, after runtime.MemStats
		_, err := srv.Serve(initial, func(round int, g []float64) {
			switch round {
			case warm:
				runtime.ReadMemStats(&before)
			case warm + measured:
				runtime.ReadMemStats(&after)
			}
		})
		var errs []error
		for _, wait := range waits {
			errs = append(errs, wait()...)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: participant %d: %v", tc.name, i, err)
			}
		}
		if per := (after.Mallocs - before.Mallocs) / measured; per != 0 {
			t.Errorf("%s: %d allocs per round (%d over %d rounds), want 0",
				tc.name, per, after.Mallocs-before.Mallocs, measured)
		}
	}
}
