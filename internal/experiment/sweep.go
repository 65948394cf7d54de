package experiment

// Hyper-parameter sensitivity sweeps: how robust is the paper's Table I
// configuration? Each sweep point mutates one knob, trains scenario 2
// federated, and reports the average evaluation reward. A flat curve around
// the paper's value means the configuration is not finely tuned to the
// testbed — a reproducibility-relevant property.

import (
	"fmt"

	"fedpower/internal/fed"
	"fedpower/internal/par"
	"fedpower/internal/stats"
)

// SweepPoint is one configuration in a sweep.
type SweepPoint struct {
	Label  string
	Mutate func(*Options)
}

// SweepResult pairs each point's label with its federated evaluation
// reward.
type SweepResult struct {
	Dimension string
	Labels    []string
	Reward    []float64
}

// Best returns the label of the highest-reward point.
func (r *SweepResult) Best() string {
	if len(r.Reward) == 0 {
		return ""
	}
	best := 0
	for i := 1; i < len(r.Reward); i++ {
		if r.Reward[i] > r.Reward[best] {
			best = i
		}
	}
	return r.Labels[best]
}

// RunSweep trains scenario 2 federated under each point and evaluates the
// final model on all twelve applications. Sweep points are mutually
// independent — each derives its own seed streams from its index — so they
// fan out on the experiment worker pool, with results reported in point
// order.
func RunSweep(o Options, dimension string, points []SweepPoint) (*SweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("experiment: sweep %q has no points", dimension)
	}
	sc := TableII()[1]
	out := &SweepResult{
		Dimension: dimension,
		Labels:    make([]string, len(points)),
		Reward:    make([]float64, len(points)),
	}
	err := par.ForEach(o.workers(), len(points), func(pi int) error {
		pt := points[pi]
		po := o
		pt.Mutate(&po)
		if err := po.Validate(); err != nil {
			return fmt.Errorf("experiment: sweep point %s: %w", pt.Label, err)
		}

		clients, global, err := newFederation(po, sc, int64(8000+100*pi), int64(8000+pi))
		if err != nil {
			return err
		}
		if err := fed.RunParallel(global, clients, po.Rounds, po.workers(), nil); err != nil {
			return fmt.Errorf("experiment: sweep point %s: %w", pt.Label, err)
		}

		var agg stats.Running
		for appIdx, spec := range EvalApps() {
			res := evaluate(po, NewNeuralPolicy(po.Core, global), spec, false, 8500, int64(pi), int64(appIdx))
			agg.Add(res.AvgReward)
		}
		out.Labels[pi] = pt.Label
		out.Reward[pi] = agg.Mean()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LearningRateSweep sweeps Adam's learning rate around the paper's 0.005.
func LearningRateSweep(rates ...float64) []SweepPoint {
	if len(rates) == 0 {
		rates = []float64{0.0005, 0.001, 0.005, 0.02, 0.05}
	}
	pts := make([]SweepPoint, len(rates))
	for i, r := range rates {
		r := r
		pts[i] = SweepPoint{
			Label:  fmt.Sprintf("lr=%g", r),
			Mutate: func(o *Options) { o.Core.LearningRate = r },
		}
	}
	return pts
}

// TauDecaySweep sweeps the temperature decay around the paper's 0.0005.
func TauDecaySweep(decays ...float64) []SweepPoint {
	if len(decays) == 0 {
		decays = []float64{0.0001, 0.0005, 0.002, 0.01}
	}
	pts := make([]SweepPoint, len(decays))
	for i, d := range decays {
		d := d
		pts[i] = SweepPoint{
			Label:  fmt.Sprintf("tau_decay=%g", d),
			Mutate: func(o *Options) { o.Core.TauDecay = d },
		}
	}
	return pts
}

// BatchSizeSweep sweeps the mini-batch size around the paper's 128.
func BatchSizeSweep(sizes ...int) []SweepPoint {
	if len(sizes) == 0 {
		sizes = []int{32, 64, 128, 256}
	}
	pts := make([]SweepPoint, len(sizes))
	for i, s := range sizes {
		s := s
		pts[i] = SweepPoint{
			Label:  fmt.Sprintf("batch=%d", s),
			Mutate: func(o *Options) { o.Core.BatchSize = s },
		}
	}
	return pts
}

// HiddenWidthSweep sweeps the hidden-layer width around the paper's 32.
func HiddenWidthSweep(widths ...int) []SweepPoint {
	if len(widths) == 0 {
		widths = []int{8, 16, 32, 64, 128}
	}
	pts := make([]SweepPoint, len(widths))
	for i, w := range widths {
		w := w
		pts[i] = SweepPoint{
			Label:  fmt.Sprintf("width=%d", w),
			Mutate: func(o *Options) { o.Core.HiddenNeurons = w },
		}
	}
	return pts
}

// SweepByName resolves a sweep dimension name used by the CLI.
func SweepByName(dim string) ([]SweepPoint, error) {
	switch dim {
	case "lr":
		return LearningRateSweep(), nil
	case "tau":
		return TauDecaySweep(), nil
	case "batch":
		return BatchSizeSweep(), nil
	case "width":
		return HiddenWidthSweep(), nil
	default:
		return nil, fmt.Errorf("experiment: unknown sweep dimension %q (want lr, tau, batch or width)", dim)
	}
}
