package nn

// On amd64 the three hot loops of the batched update are SSE2 kernels
// (kernels_amd64.s), two float64 lanes per instruction. SSE2 is the
// GOAMD64=v1 baseline, so every amd64 CPU runs them and there is nothing
// to dispatch on. They compute the bits of the generic kernels
// (kernels.go): each lane is one unit's own accumulator, fed by the same
// IEEE multiplies and adds in the same order (MULPD/ADDPD round each lane
// exactly as MULSD/ADDSD do, nothing is contracted, and MXCSR stays at
// its default), so packing two units into a register reorders nothing.
//
// The Go functions below cut every slice to its exact shape before the
// kernel runs, so a shape bug panics here instead of letting the
// unchecked assembly read or write past a slice. Widths that are not a
// multiple of the lane block are handled inside the assembly by scalar
// tails: every shape runs the same path.

// forwardHidden transposes the layer's weights into wt (nin×nout), so the
// lanes of one load are adjacent units, and runs forwardHiddenSSE2.
func forwardHidden(nin int, w, b, in, pre, act, wt []float64) {
	nout := len(b)
	batch := len(pre) / nout
	w = w[:nout*nin]
	wt = wt[:nin*nout]
	in = in[:batch*nin]
	pre = pre[:batch*nout]
	act = act[:len(pre)]
	transpose(wt, w, nout, nin)
	forwardHiddenSSE2(wt, b, in, pre, act, nin, nout, batch)
}

// seedDelta runs seedDeltaSSE2 on exactly shaped slices. The kernel reads
// the weight row of actions[s] without a bounds check; BackwardBatch has
// checked every action against the output width before it gets here.
func seedDelta(nin int, w, gs []float64, actions []int, pre, delta []float64) {
	batch := len(gs)
	actions = actions[:batch]
	pre = pre[:batch*nin]
	delta = delta[:len(pre)]
	seedDeltaSSE2(w, gs, actions, pre, delta, nin, batch)
}

// gradHidden copies the layer's gradient block gw into gwt transposed
// (nin×nout), lets gradHiddenSSE2 accumulate there with the units in the
// lanes, and copies it back. The copies move bits, so the cells are
// exactly the cells the generic kernel accumulates in place.
func gradHidden(nin int, delta, in, gw, gb, gwt []float64) {
	nout := len(gb)
	batch := len(delta) / nout
	delta = delta[:batch*nout]
	in = in[:batch*nin]
	gw = gw[:nout*nin]
	gwt = gwt[:nin*nout]
	transpose(gwt, gw, nout, nin)
	gradHiddenSSE2(delta, in, gwt, gb, nin, nout, batch)
	transpose(gw, gwt, nin, nout)
}

// transpose writes the rows×cols row-major matrix src into dst as
// cols×rows row-major: dst[c·rows+r] = src[r·cols+c].
func transpose(dst, src []float64, rows, cols int) {
	dst = dst[:rows*cols]
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c*rows+r] = v
		}
	}
}

// forwardHiddenSSE2 is forwardHiddenGeneric on the transposed weights wt:
// per sample, sixteen units at a time (then one pair at a time, then a
// single unit), each unit's sum started at its bias and fed left to right
// over the inputs; the ReLU is CMPPD (0 < v) then ANDPD, which is relu.
//
//fedlint:allocfree
//go:noescape
func forwardHiddenSSE2(wt, b, in, pre, act []float64, nin, nout, batch int)

// seedDeltaSSE2 is seedDeltaGeneric, one pair of inputs at a time: MULPD,
// then CMPPD (pre ≤ 0), then ANDNPD, which is reluMask.
//
//fedlint:allocfree
//go:noescape
func seedDeltaSSE2(w, gs []float64, actions []int, pre, delta []float64, nin, batch int)

// gradHiddenSSE2 is gradHiddenGeneric on the transposed gradient gwt,
// eight units at a time (then one pair, then a single unit). The exact-zero
// skip is a select: a unit whose delta is ±0 contributes −0 instead of its
// products, and x + (−0) = x for every x, −0 included, so the cell is
// unchanged without a branch. (A signalling NaN cell comes out quiet,
// which is still the NaN the tests compare by class.)
//
//fedlint:allocfree
//go:noescape
func gradHiddenSSE2(delta, in, gwt, gb []float64, nin, nout, batch int)
