//go:build !amd64

package nn

// Off amd64 the batched update runs the portable kernels of kernels.go.
// The scratch a packed kernel transposes through is not needed here.

func forwardHidden(nin int, w, b, in, pre, act, _ []float64) {
	forwardHiddenGeneric(nin, w, b, in, pre, act)
}

func seedDelta(nin int, w, gs []float64, actions []int, pre, delta []float64) {
	seedDeltaGeneric(nin, w, gs, actions, pre, delta)
}

func gradHidden(nin int, delta, in, gw, gb, _ []float64) {
	gradHiddenGeneric(nin, delta, in, gw, gb)
}
