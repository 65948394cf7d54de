package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedpower/internal/baseline"
	"fedpower/internal/replay"
	"fedpower/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens with the current output")

// bitsHash is the SHA-256, in hex, of the little-endian float64 bits of
// every value in order.
func bitsHash(values ...[]float64) string {
	var b []byte
	for _, vs := range values {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// samplesHash hashes a round of raw samples: each state's bits, the
// action and the reward's bits.
func samplesHash(samples []replay.Sample) string {
	var vs []float64
	for _, s := range samples {
		vs = append(vs, s.State...)
		vs = append(vs, math.Float64frombits(uint64(s.Action)), s.Reward)
	}
	return bitsHash(vs)
}

// TestIntervalGolden pins every variant of Algorithm 1's control interval
// against testdata/interval.golden: two rounds of the central collector
// (its raw samples and its exploration temperature), of the multi-core
// cluster device and of NeuralDevice, each under smallOptions. A change to
// the order or the count of any step of the interval — featurize, select,
// actuate, plant step, reward, observe or schedule advance — fails it. Run
// with -update only for a deliberate change to the trajectories, and
// record it.
func TestIntervalGolden(t *testing.T) {
	o := smallOptions()
	apps, err := workload.ByNames("fft", "lu")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string

	trainer := baseline.NewCentralTrainer(o.Core, newRNG(o.Seed, 9300))
	central := newCentralDevice(o, 9400, apps)
	for r := 1; r <= 2; r++ {
		samples := central.CollectRound(append([]float64(nil), trainer.Policy()...))
		lines = append(lines, fmt.Sprintf("central %d samples %d %s tau %x",
			r, len(samples), samplesHash(samples), math.Float64bits(central.dev.Ctrl.Tau())))
		trainer.Ingest(samples)
	}

	cluster := newClusterDevice(o, 5000, 4, apps)
	global := append([]float64(nil), cluster.ctrl.ModelParams()...)
	for r := 1; r <= 2; r++ {
		if global, err = cluster.TrainRound(r, global); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("cluster %d %s", r, bitsHash(global)))
	}

	neural := NewNeuralDevice(o, 1, apps)
	global = append([]float64(nil), neural.Ctrl.ModelParams()...)
	for r := 1; r <= 2; r++ {
		if global, err = neural.TrainRound(r, global); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("neural %d %s", r, bitsHash(global)))
	}

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "interval.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("control interval drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
