package baseline

import (
	"testing"

	"fedpower/internal/sim"
)

func TestDefaultDiscretizerShape(t *testing.T) {
	want := Discretizer{PowerBins: 12, PowerMaxW: 1.5, IPCBins: 8, IPCMax: 2.0, MPKIBins: 8, MPKIMax: 30}
	if got := DefaultDiscretizer(); got != want {
		t.Fatalf("DefaultDiscretizer = %+v, want %+v", got, want)
	}
}

func TestBinEdges(t *testing.T) {
	cases := []struct {
		x, max float64
		bins   int
		want   uint8
	}{
		{-1, 10, 5, 0},  // below range clamps to 0
		{0, 10, 5, 0},   // lower edge
		{1.9, 10, 5, 0}, // inside first bin
		{2.0, 10, 5, 1}, // bin boundary belongs to the next bin
		{9.9, 10, 5, 4},
		{10, 10, 5, 4}, // upper edge clamps to last bin
		{99, 10, 5, 4}, // above range clamps
	}
	for _, c := range cases {
		if got := bin(c.x, c.max, c.bins); got != c.want {
			t.Errorf("bin(%v, %v, %d) = %d, want %d", c.x, c.max, c.bins, got, c.want)
		}
	}
}

func TestKeyFields(t *testing.T) {
	d := DefaultDiscretizer()
	obs := sim.Observation{
		Level:  7,
		PowerW: 0.59, // 0.59/1.5·12 = 4.72 -> bin 4
		IPC:    1.1,  // 1.1/2·8 = 4.4 -> bin 4
		MPKI:   22,   // 22/30·8 = 5.87 -> bin 5
	}
	key := d.Key(obs)
	if key.F != 7 {
		t.Errorf("F = %d, want 7", key.F)
	}
	if key.P != 4 {
		t.Errorf("P = %d, want 4", key.P)
	}
	if key.IPC != 4 {
		t.Errorf("IPC = %d, want 4", key.IPC)
	}
	if key.MPKI != 5 {
		t.Errorf("MPKI = %d, want 5", key.MPKI)
	}
}

func TestKeyStaysInRange(t *testing.T) {
	d := DefaultDiscretizer()
	extremes := []sim.Observation{
		{Level: 0, PowerW: 0, IPC: 0, MPKI: 0},
		{Level: 14, PowerW: 99, IPC: 99, MPKI: 999},
	}
	for _, obs := range extremes {
		k := d.Key(obs)
		if int(k.P) >= d.PowerBins || int(k.IPC) >= d.IPCBins || int(k.MPKI) >= d.MPKIBins {
			t.Errorf("key %v out of bin ranges", k)
		}
	}
}

func TestKeyIsMapUsable(t *testing.T) {
	// StateKeys must work as map keys: equal observations collide, distinct
	// bins do not.
	d := DefaultDiscretizer()
	m := map[StateKey]int{}
	a := sim.Observation{Level: 3, PowerW: 0.5, IPC: 1.0, MPKI: 5}
	b := sim.Observation{Level: 3, PowerW: 0.51, IPC: 1.01, MPKI: 5.2} // same bins
	c := sim.Observation{Level: 4, PowerW: 0.5, IPC: 1.0, MPKI: 5}
	m[d.Key(a)]++
	m[d.Key(b)]++
	m[d.Key(c)]++
	if len(m) != 2 {
		t.Fatalf("expected 2 distinct keys, got %d", len(m))
	}
	if m[d.Key(a)] != 2 {
		t.Fatal("near-identical observations landed in different bins")
	}
}

func TestKeyString(t *testing.T) {
	k := StateKey{F: 1, P: 2, IPC: 3, MPKI: 4}
	if got := k.String(); got != "f1/p2/i3/m4" {
		t.Fatalf("String = %q", got)
	}
}
