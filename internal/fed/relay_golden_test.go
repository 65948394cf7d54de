package fed

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens with the current output")

// relayGoldenLeaves are the four leaf updates of TestRelayWireGolden's 2x2
// tree, leaves 0–1 under the first aggregator and 2–3 under the second.
// Every value is a float32, so the dense leaf hop carries it unrounded,
// and per parameter the two subtree sums cover one wire case each:
//
//	0  inexact (dirty) sums: 2^100 + 2^-100 across four limbs, 1 + 2^-60
//	1  negative sums
//	2  ±0 summands, which sum to +0
//	3  float32 subnormals
//	4  clean sums whose magnitude straddles a limb boundary
//	5  non-finite tallies: +Inf beside a finite part, then -Inf and NaN
//	6  ±MaxFloat32, once with a 1 that the float64 sum loses
//	7  clean sums inside one limb
var relayGoldenLeaves = [4][]float64{
	{0x1p100, -3.5, 0, 0x1p-149, 1 + 0x1p-23, math.Inf(1), math.MaxFloat32, 0.75},
	{0x1p-100, -0.25, math.Copysign(0, -1), 0x1.8p-148, 0.5, 1, math.MaxFloat32, 0.125},
	{1, -1.5, math.Copysign(0, -1), -0x1p-149, 0x1p63, math.Inf(-1), -math.MaxFloat32, -0.5},
	{0x1p-60, 0.5, math.Copysign(0, -1), 0x1p-140, 0x1p64, math.NaN(), 1, 0.25},
}

// relayGoldenFloat64 are leaf updates no dense leaf hop can carry: float64
// subnormals alone and beside normals, a sum past MaxFloat64, and a dirty
// sum whose span runs from 2^-1074 to 2^1023. They cross the in-process
// tree's relay hop only, at the bottom and the top of the limb window.
var relayGoldenFloat64 = [4][]float64{
	{0x1p-1074, 0x1p-1022, math.MaxFloat64, 0x1p1023, 1, -0x1p-1074},
	{0x1p-1073, -0x1p-1074, math.MaxFloat64, -0x1p-1074, 1, 0x1p-1074},
	{-0x1p-1060, 0x1p-1030, -math.MaxFloat64, 0x1p-1074, -1, math.Copysign(0, -1)},
	{0x1p-1074, 0x1p-1074, -math.MaxFloat64, 0x1p-1074, 0x1p-52, 0x1p-1022},
}

// relayGoldenRounds is the round count of the golden scenarios. Even
// rounds negate every update, so each sign of each case crosses the hop.
const relayGoldenRounds = 2

// relayGoldenUpdate returns leaf's update in round from base.
func relayGoldenUpdate(base *[4][]float64, leaf, round int) []float64 {
	v := append([]float64(nil), base[leaf]...)
	if round%2 == 0 {
		for i := range v {
			v[i] = -v[i]
		}
	}
	return v
}

// hashHex is the SHA-256 of b in hex.
func hashHex(b []byte) string {
	h := sha256.Sum256(b)
	return fmt.Sprintf("%x", h)
}

// meanHash hashes a model's float64 bits, little-endian.
func meanHash(params []float64) string {
	b := make([]byte, 0, 8*len(params))
	for _, p := range params {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	return hashHex(b)
}

// relayFrame frames an accumulator block as the relay message a subtree
// of leaves sends for round: header, leaf count, block length, block.
func relayFrame(round, count, leaves int, block []byte) []byte {
	f := []byte{msgRelay}
	f = binary.LittleEndian.AppendUint32(f, uint32(round))
	f = binary.LittleEndian.AppendUint32(f, uint32(count))
	f = binary.LittleEndian.AppendUint32(f, uint32(leaves))
	f = binary.LittleEndian.AppendUint32(f, uint32(len(block)))
	return append(f, block...)
}

// relayTap is a TCP proxy in front of the root that records everything
// each aggregator sends upward, one buffer per connection.
type relayTap struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup
	mu     sync.Mutex
	up     []*bytes.Buffer
}

func newRelayTap(t *testing.T, target string) *relayTap {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &relayTap{ln: ln, target: target}
	tp.wg.Add(1)
	go tp.serve()
	return tp
}

func (tp *relayTap) serve() {
	defer tp.wg.Done()
	for {
		down, err := tp.ln.Accept()
		if err != nil {
			return
		}
		root, err := net.Dial("tcp", tp.target)
		if err != nil {
			_ = down.Close()
			continue
		}
		rec := new(bytes.Buffer)
		tp.mu.Lock()
		tp.up = append(tp.up, rec)
		tp.mu.Unlock()
		tp.wg.Add(2)
		go func() {
			defer tp.wg.Done()
			_, _ = io.Copy(io.MultiWriter(root, rec), down)
			_ = root.Close()
		}()
		go func() {
			defer tp.wg.Done()
			_, _ = io.Copy(down, root)
			_ = down.Close()
		}()
	}
}

// frames closes the tap and returns each recorded connection's relay
// frames, keyed by the aggregator ID of its join frame.
func (tp *relayTap) frames(t *testing.T) map[uint32][][]byte {
	_ = tp.ln.Close()
	tp.wg.Wait()
	out := map[uint32][][]byte{}
	for _, rec := range tp.up {
		b := rec.Bytes()
		if len(b) < headerSize || b[0] != msgJoin {
			t.Fatalf("upstream connection does not open with a join frame: % x", b[:min(len(b), headerSize)])
		}
		id := binary.LittleEndian.Uint32(b[1:])
		for b = b[headerSize:]; len(b) > 0; {
			if len(b) < headerSize+8 || b[0] != msgRelay {
				t.Fatalf("aggregator %d: %d upstream bytes are not a relay frame", id, len(b))
			}
			n := headerSize + 8 + int(binary.LittleEndian.Uint32(b[headerSize+4:]))
			if n > len(b) {
				t.Fatalf("aggregator %d: relay frame of %d bytes cut at %d", id, n, len(b))
			}
			out[id] = append(out[id], b[:n])
			b = b[n:]
		}
	}
	return out
}

// relayGoldenTCP runs the float32 scenario over loopback — a root, two
// aggregators behind relayTap, two dense leaves each — and returns the
// golden lines of every relay frame and every root mean.
func relayGoldenTCP(t *testing.T) []string {
	const aggs, leaves = 2, 2
	n := len(relayGoldenLeaves[0])
	root, err := NewServer("127.0.0.1:0", aggs, relayGoldenRounds)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	root.Codec = DenseCodec()
	root.RoundTimeout, root.JoinTimeout = 10*time.Second, 10*time.Second
	tap := newRelayTap(t, root.Addr())

	var wg sync.WaitGroup
	errs := make([]error, aggs*(leaves+1))
	for a := 0; a < aggs; a++ {
		agg, err := NewAggregator("127.0.0.1:0", leaves)
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		agg.Parent, agg.ID, agg.Uplink = tap.ln.Addr().String(), uint32(101+a), DenseCodec()
		agg.Children.Codec = DenseCodec()
		agg.Children.RoundTimeout, agg.Children.JoinTimeout = 5*time.Second, 5*time.Second
		agg.Retry = Backoff{Attempts: 3, Base: 5 * time.Millisecond}
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			_, errs[a] = agg.Run()
		}(a)
		for l := 0; l < leaves; l++ {
			leaf := a*leaves + l
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := DialCodec(agg.Addr(), uint32(leaf+1), DenseCodec())
				if err != nil {
					errs[aggs+leaf] = err
					return
				}
				defer conn.Close()
				_, errs[aggs+leaf] = conn.Participate(ClientFunc(func(round int, _ []float64) ([]float64, error) {
					return relayGoldenUpdate(&relayGoldenLeaves, leaf, round), nil
				}))
			}()
		}
	}
	var means []string
	_, err = root.Serve(make([]float64, n), func(round int, g []float64) {
		means = append(means, fmt.Sprintf("mean %d %s", round, meanHash(g)))
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("root: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("participant %d: %v", i, err)
		}
	}
	frames := tap.frames(t)
	var lines []string
	for r := 1; r <= relayGoldenRounds; r++ {
		for a := 0; a < aggs; a++ {
			fs := frames[uint32(101+a)]
			if len(fs) != relayGoldenRounds {
				t.Fatalf("aggregator %d sent %d relay frames, want %d", 101+a, len(fs), relayGoldenRounds)
			}
			lines = append(lines, fmt.Sprintf("frame %d.%d %s", r, a, hashHex(fs[r-1])))
		}
		lines = append(lines, means[r-1])
	}
	return lines
}

// relayGoldenInProc runs a scenario through the in-process tree's relay
// hop and returns the same golden lines, prefixed. With f32 the leaf
// updates are rounded to float32 first, as the dense leaf hop does.
func relayGoldenInProc(t *testing.T, prefix string, base *[4][]float64, f32 bool) []string {
	n := len(base[0])
	var next int
	root := buildTreeState(&TreeNode{Children: []*TreeNode{{Leaves: 2}, {Leaves: 2}}}, n, &next)
	var lines []string
	for r := 1; r <= relayGoldenRounds; r++ {
		locals := make([][]float64, len(base))
		for l := range locals {
			locals[l] = relayGoldenUpdate(base, l, r)
			if f32 {
				for i, v := range locals[l] {
					locals[l][i] = float64(float32(v))
				}
			}
		}
		root.acc.Reset()
		for ci, c := range root.children {
			leaves, err := c.sum(locals, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := root.hop(c); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%sframe %d.%d %s", prefix, r, ci, hashHex(relayFrame(r, n, leaves, root.scratch))))
		}
		mean := make([]float64, n)
		root.acc.Mean(mean, len(locals))
		lines = append(lines, fmt.Sprintf("%smean %d %s", prefix, r, meanHash(mean)))

		// The whole-tree pass reads the same mean.
		total, err := root.sum(locals, 2)
		if err != nil {
			t.Fatal(err)
		}
		again := make([]float64, n)
		root.acc.Mean(again, total)
		if meanHash(again) != meanHash(mean) {
			t.Fatalf("%sround %d: root.sum reads a different mean than its hops", prefix, r)
		}
	}
	return lines
}

// TestRelayWireGolden pins the relay protocol byte for byte: the SHA-256
// of every relay frame a 2x2 TCP tree sends up and of every mean its root
// commits, against testdata/relay_wire.golden. The in-process tree's relay
// hop over the same updates must produce the same frames and means, so the
// two engines cross the same bytes. A second, in-process-only scenario
// pins float64 values the dense leaf hop cannot carry. Any change to how a
// sum is trimmed, signed, tallied or framed on the wire fails it; run with
// -update only for a deliberate protocol change, and record it.
func TestRelayWireGolden(t *testing.T) {
	tcp := relayGoldenTCP(t)
	inproc := relayGoldenInProc(t, "", &relayGoldenLeaves, true)
	if strings.Join(tcp, "\n") != strings.Join(inproc, "\n") {
		t.Errorf("in-process relay hop differs from TCP\n--- tcp ---\n%s\n--- in-process ---\n%s",
			strings.Join(tcp, "\n"), strings.Join(inproc, "\n"))
	}
	got := strings.Join(append(tcp, relayGoldenInProc(t, "float64 ", &relayGoldenFloat64, false)...), "\n") + "\n"

	path := filepath.Join("testdata", "relay_wire.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("relay wire drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
