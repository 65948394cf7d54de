package sim

import (
	"fmt"
	"math/rand"
)

// MultiCoreDevice simulates the Jetson Nano's actual CPU topology: a
// cluster of cores sharing one clock and voltage rail ("four ARM
// Cortex-A57 cores with a shared clock signal", §IV). Each core runs its
// own single-threaded workload; a DVFS action switches the whole cluster.
//
// The paper evaluates with one single-threaded application at a time —
// the single-core Device models that. MultiCoreDevice extends the substrate
// to concurrent per-core workloads, where the cluster-level power is the
// shared static rail cost plus the sum of per-core dynamic power, and the
// controller observes aggregate counters. It is used by the multi-core
// extension experiment.
type MultiCoreDevice struct {
	Table *VFTable
	Power PowerModel

	// PowerNoiseW and IPCNoiseRel mirror Device's sensor noise.
	PowerNoiseW float64
	IPCNoiseRel float64

	// IdleCoreActivity is the dynamic-power activity of a core with no
	// workload loaded (clock-gating leaves a small residual).
	IdleCoreActivity float64

	level int
	cores []Workload // nil entries are idle cores
	rng   *rand.Rand
	stats Stats
}

// NewMultiCoreDevice returns a cluster with the given core count, all cores
// idle, at the lowest V/f level.
func NewMultiCoreDevice(table *VFTable, pm PowerModel, cores int, rng *rand.Rand) *MultiCoreDevice {
	if table == nil {
		panic("sim: NewMultiCoreDevice requires a V/f table")
	}
	if cores <= 0 {
		panic(fmt.Sprintf("sim: core count %d must be positive", cores))
	}
	if rng == nil {
		panic("sim: NewMultiCoreDevice requires a rand source")
	}
	return &MultiCoreDevice{
		Table:            table,
		Power:            pm,
		PowerNoiseW:      0.010,
		IPCNoiseRel:      0.02,
		IdleCoreActivity: 0.05,
		cores:            make([]Workload, cores),
		rng:              rng,
	}
}

// Cores returns the cluster's core count.
func (d *MultiCoreDevice) Cores() int { return len(d.cores) }

// LoadCore installs (and resets) a workload on core i; nil idles the core.
func (d *MultiCoreDevice) LoadCore(i int, w Workload) {
	if i < 0 || i >= len(d.cores) {
		panic(fmt.Sprintf("sim: core %d out of range [0,%d)", i, len(d.cores)))
	}
	if w != nil {
		w.Reset()
	}
	d.cores[i] = w
}

// CoreDone reports whether core i has no work left (idle or completed).
func (d *MultiCoreDevice) CoreDone(i int) bool {
	return d.cores[i] == nil || d.cores[i].Remaining() <= 0
}

// AllDone reports whether every core is idle or completed.
func (d *MultiCoreDevice) AllDone() bool {
	for i := range d.cores {
		if !d.CoreDone(i) {
			return false
		}
	}
	return true
}

// SetLevel switches the shared cluster clock.
func (d *MultiCoreDevice) SetLevel(k int) {
	if k < 0 || k >= d.Table.Len() {
		panic(fmt.Sprintf("sim: SetLevel %d out of range [0,%d)", k, d.Table.Len()))
	}
	d.level = k
}

// Level returns the active V/f level.
func (d *MultiCoreDevice) Level() int { return d.level }

// Step runs the cluster for dt seconds and returns the aggregate
// observation: total power (one shared static rail plus per-core dynamic
// power), the mean per-active-core IPC, and instruction-weighted cache
// statistics. Idle cores contribute only their residual activity. Cores
// whose workload completes mid-interval simply stop contributing; the
// observation still covers the full dt (the cluster keeps running).
func (d *MultiCoreDevice) Step(dt float64) Observation {
	if dt <= 0 {
		panic(fmt.Sprintf("sim: Step interval %v must be positive", dt))
	}
	lv := d.Table.Level(d.level)

	var (
		totalDyn   float64
		ipcSum     float64
		active     int
		totalInstr float64
		missSum    float64 // instruction-weighted MPKI numerator
		accSum     float64 // instruction-weighted APKI numerator
	)
	for _, w := range d.cores {
		if w == nil || w.Remaining() <= 0 {
			totalDyn += d.Power.Dynamic(lv.VoltV, lv.FreqMHz, 0, d.IdleCoreActivity)
			continue
		}
		dem := w.Demand()
		ipc := IPC(dem, lv.FreqMHz)
		ips := ipc * lv.FreqMHz * 1e6
		instr := ips * dt
		if rem := w.Remaining(); instr > rem {
			instr = rem
		}
		w.Advance(instr)

		totalDyn += d.Power.Dynamic(lv.VoltV, lv.FreqMHz, ipc, dem.Activity)
		ipcSum += ipc
		active++
		totalInstr += instr
		missSum += dem.MPKI * instr
		accSum += dem.APKI * instr
	}

	truePower := d.Power.Static(lv.VoltV) + totalDyn
	measPower := truePower + d.rng.NormFloat64()*d.PowerNoiseW
	if measPower < 0 {
		measPower = 0
	}

	meanIPC := 0.0
	if active > 0 {
		meanIPC = ipcSum / float64(active)
	}
	measIPC := meanIPC * (1 + d.rng.NormFloat64()*d.IPCNoiseRel)
	if measIPC < 0 {
		measIPC = 0
	}
	mpki, missRate := 0.0, 0.0
	if totalInstr > 0 && accSum > 0 {
		mpki = missSum / totalInstr
		missRate = missSum / accSum
	}

	energy := truePower * dt
	d.stats.TimeS += dt
	d.stats.Instr += totalInstr
	d.stats.EnergyJ += energy

	return Observation{
		Level:     d.level,
		FreqMHz:   lv.FreqMHz,
		NormFreq:  lv.FreqMHz / d.Table.MaxFreqMHz(),
		PowerW:    measPower,
		IPC:       measIPC,
		MissRate:  missRate,
		MPKI:      mpki,
		Instr:     totalInstr,
		ElapsedS:  dt,
		EnergyJ:   energy,
		TruePower: truePower,
	}
}

// Stats returns the cluster's cumulative execution statistics.
func (d *MultiCoreDevice) Stats() Stats { return d.stats }

// ResetStats zeroes the cumulative statistics.
func (d *MultiCoreDevice) ResetStats() { d.stats = Stats{} }
