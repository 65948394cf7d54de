// Package baseline implements the state-of-the-art comparison point of
// §IV-B: Profit, a table-based RL power controller (Chen et al., TCAD 2018),
// extended with CollabPolicy, the privacy-preserving multi-device knowledge
// sharing of Tian et al. (TCAD 2019). Together they form the
// Profit+CollabPolicy baseline the paper's federated neural controller is
// measured against.
//
// Tabular RL requires a discrete state space, so continuous counter readings
// are binned — the representational limitation (no generalisation across
// states) that the paper argues NNs overcome.
package baseline

import (
	"fmt"

	"fedpower/internal/sim"
)

// StateKey is Profit's discretised agent state: the current V/f level and
// binned power, IPC and MPKI readings (§IV-B: "the state of the agent is
// composed of the current frequency, power consumption, IPC and MPKI").
// It is comparable, so it can key Go maps directly.
type StateKey struct {
	F    uint8 // V/f level index
	P    uint8 // power bin
	IPC  uint8 // IPC bin
	MPKI uint8 // MPKI bin
}

// String renders the key for diagnostics.
func (k StateKey) String() string {
	return fmt.Sprintf("f%d/p%d/i%d/m%d", k.F, k.P, k.IPC, k.MPKI)
}

// Discretizer maps continuous observations onto StateKeys with uniform bins
// over fixed platform ranges.
type Discretizer struct {
	PowerBins int     // number of power bins
	PowerMaxW float64 // power range upper bound
	IPCBins   int
	IPCMax    float64
	MPKIBins  int
	MPKIMax   float64
}

// DefaultDiscretizer returns the binning used for the baseline on the
// Jetson Nano model: 12 power bins over 0–1.5 W, 8 IPC bins over 0–2, and 8
// MPKI bins over 0–30, giving 15·12·8·8 = 11520 possible states — fine
// enough to resolve the control decision, coarse enough that the training
// budget populates a useful fraction of it.
func DefaultDiscretizer() Discretizer {
	return Discretizer{
		PowerBins: 12, PowerMaxW: 1.5,
		IPCBins: 8, IPCMax: 2.0,
		MPKIBins: 8, MPKIMax: 30,
	}
}

func bin(x, max float64, bins int) uint8 {
	if x <= 0 {
		return 0
	}
	b := int(x / max * float64(bins))
	if b >= bins {
		b = bins - 1
	}
	return uint8(b)
}

// Key discretises an observation.
func (d Discretizer) Key(obs sim.Observation) StateKey {
	return StateKey{
		F:    uint8(obs.Level),
		P:    bin(obs.PowerW, d.PowerMaxW, d.PowerBins),
		IPC:  bin(obs.IPC, d.IPCMax, d.IPCBins),
		MPKI: bin(obs.MPKI, d.MPKIMax, d.MPKIBins),
	}
}
