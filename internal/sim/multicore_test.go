package sim

import (
	"math"
	"math/rand"
	"testing"
)

func newTestCluster(t *testing.T, cores int) *MultiCoreDevice {
	t.Helper()
	d := NewMultiCoreDevice(JetsonNanoTable(), DefaultPowerModel(), cores, rand.New(rand.NewSource(1)))
	d.PowerNoiseW, d.IPCNoiseRel = 0, 0
	return d
}

func TestNewMultiCoreDeviceValidation(t *testing.T) {
	cases := []func(){
		func() { NewMultiCoreDevice(nil, DefaultPowerModel(), 4, rand.New(rand.NewSource(1))) },
		func() { NewMultiCoreDevice(JetsonNanoTable(), DefaultPowerModel(), 0, rand.New(rand.NewSource(1))) },
		func() { NewMultiCoreDevice(JetsonNanoTable(), DefaultPowerModel(), 4, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMultiCoreIdleCluster(t *testing.T) {
	d := newTestCluster(t, 4)
	if !d.AllDone() {
		t.Fatal("fresh cluster should be all-done")
	}
	d.SetLevel(7)
	obs := d.Step(0.5)
	// Idle cluster: static rail plus four residual-activity cores.
	lv := JetsonNanoTable().Level(7)
	want := DefaultPowerModel().Static(lv.VoltV) + 4*DefaultPowerModel().Dynamic(lv.VoltV, lv.FreqMHz, 0, 0.05)
	if math.Abs(obs.PowerW-want) > 1e-12 {
		t.Fatalf("idle power %v, want %v", obs.PowerW, want)
	}
	if obs.IPC != 0 || obs.Instr != 0 {
		t.Fatalf("idle cluster retired work: %+v", obs)
	}
}

func TestMultiCorePowerSumsAcrossCores(t *testing.T) {
	dem := Demand{BaseCPI: 0.7, MPKI: 5, APKI: 150, MemLatencyNs: 80, Activity: 1.0}
	one := newTestCluster(t, 4)
	one.SetLevel(8)
	one.LoadCore(0, newFixedWorkload(dem, 1e15))
	p1 := one.Step(0.5).TruePower

	four := newTestCluster(t, 4)
	four.SetLevel(8)
	for i := 0; i < 4; i++ {
		four.LoadCore(i, newFixedWorkload(dem, 1e15))
	}
	p4 := four.Step(0.5).TruePower

	// Three more active cores add three (dynamic - idle) increments; the
	// static rail is shared and must NOT be multiplied.
	lv := JetsonNanoTable().Level(8)
	ipc := IPC(dem, lv.FreqMHz)
	pm := DefaultPowerModel()
	delta := pm.Dynamic(lv.VoltV, lv.FreqMHz, ipc, dem.Activity) - pm.Dynamic(lv.VoltV, lv.FreqMHz, 0, 0.05)
	if math.Abs((p4-p1)-3*delta) > 1e-9 {
		t.Fatalf("4-core power %v vs 1-core %v: delta %v, want %v", p4, p1, p4-p1, 3*delta)
	}
}

func TestMultiCoreAggregateCounters(t *testing.T) {
	d := newTestCluster(t, 2)
	d.SetLevel(10)
	cmp := Demand{BaseCPI: 0.65, MPKI: 1.5, APKI: 100, MemLatencyNs: 80, Activity: 1.1}
	mem := Demand{BaseCPI: 0.80, MPKI: 22, APKI: 280, MemLatencyNs: 80, Activity: 0.85}
	cmpW, memW := newFixedWorkload(cmp, 1e15), newFixedWorkload(mem, 1e15)
	d.LoadCore(0, cmpW)
	d.LoadCore(1, memW)
	obs := d.Step(0.5)

	lv := JetsonNanoTable().Level(10)
	wantMean := (IPC(cmp, lv.FreqMHz) + IPC(mem, lv.FreqMHz)) / 2
	if math.Abs(obs.IPC-wantMean) > 1e-12 {
		t.Fatalf("mean IPC %v, want %v", obs.IPC, wantMean)
	}
	// The compute core retires far more instructions, so the weighted MPKI
	// sits well below the plain average of 1.5 and 22.
	if obs.MPKI >= (1.5+22)/2 {
		t.Fatalf("instruction-weighted MPKI %v not below plain mean", obs.MPKI)
	}
	if obs.MPKI <= 1.5 {
		t.Fatalf("weighted MPKI %v should exceed the compute core's 1.5", obs.MPKI)
	}
	if obs.Instr <= 0 {
		t.Fatal("no instructions retired")
	}
	if cmpW.Remaining() >= memW.Remaining() {
		t.Fatal("compute core should retire more instructions than the memory core")
	}
}

func TestMultiCoreCompletionStopsContribution(t *testing.T) {
	d := newTestCluster(t, 2)
	d.SetLevel(14)
	dem := Demand{BaseCPI: 1, APKI: 100, Activity: 1}
	lv := JetsonNanoTable().Level(14)
	ips := IPC(dem, lv.FreqMHz) * lv.FreqMHz * 1e6
	d.LoadCore(0, newFixedWorkload(dem, ips*0.1)) // finishes in 0.1 s
	d.LoadCore(1, newFixedWorkload(dem, 1e15))
	d.Step(0.5)
	if !d.CoreDone(0) {
		t.Fatal("core 0 should have completed")
	}
	if d.CoreDone(1) || d.AllDone() {
		t.Fatal("core 1 should still be running")
	}
	// Next interval: only core 1 contributes instructions.
	obs := d.Step(0.5)
	want := IPC(dem, lv.FreqMHz) * lv.FreqMHz * 1e6 * 0.5
	if math.Abs(obs.Instr-want) > 1 {
		t.Fatalf("instructions %v, want single-core %v", obs.Instr, want)
	}
}

func TestMultiCoreLoadCoreBounds(t *testing.T) {
	d := newTestCluster(t, 2)
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LoadCore(%d) did not panic", i)
				}
			}()
			d.LoadCore(i, nil)
		}()
	}
}

func TestMultiCoreStatsAccumulate(t *testing.T) {
	d := newTestCluster(t, 2)
	d.SetLevel(5)
	dem := Demand{BaseCPI: 1, APKI: 100, Activity: 1}
	d.LoadCore(0, newFixedWorkload(dem, 1e15))
	for i := 0; i < 4; i++ {
		d.Step(0.5)
	}
	st := d.Stats()
	if math.Abs(st.TimeS-2) > 1e-9 || st.Instr <= 0 || st.EnergyJ <= 0 {
		t.Fatalf("stats %+v", st)
	}
	d.ResetStats()
	if st := d.Stats(); st.TimeS != 0 {
		t.Fatal("stats not reset")
	}
}

func TestMultiCoreBudgetCrossoverScalesWithOccupancy(t *testing.T) {
	// With four compute-bound cores active, the cluster crosses a 1.8 W
	// budget at a lower shared level than a single active core would — the
	// property the multi-core experiment exercises.
	dem := Demand{BaseCPI: 0.65, MPKI: 1.5, APKI: 100, MemLatencyNs: 80, Activity: 1.1}
	cross := func(active int) int {
		best := 0
		for k := 0; k < JetsonNanoTable().Len(); k++ {
			d := newTestCluster(t, 4)
			d.SetLevel(k)
			for i := 0; i < active; i++ {
				d.LoadCore(i, newFixedWorkload(dem, 1e15))
			}
			if d.Step(0.5).TruePower <= 1.8 {
				best = k
			}
		}
		return best
	}
	one, four := cross(1), cross(4)
	if four >= one {
		t.Fatalf("4-core crossover level %d not below 1-core %d", four, one)
	}
}
