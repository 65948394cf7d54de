package nn

// The three hot loops of the batched update, in portable Go.
//
// ForwardBatch and BackwardBatch call them through forwardHidden,
// seedDelta and gradHidden. On amd64 those names are SSE2 kernels
// (kernels_amd64.s) that compute the same bits; on every other GOARCH
// they are the functions below (kernels_other.go). The tests run both on
// amd64, so the generic kernels are a second oracle beside the scalar
// path there, and the only implementation everywhere else.
//
// Every caller passes slices already cut to their exact shapes: w is
// nout×nin row-major, b and gb hold nout cells, in is batch×nin, pre, act
// and delta are batch×(their layer's width), and gs and actions hold one
// entry per sample.

// batchBlock is the sample-block width of the cache-blocked hidden-layer
// forward pass: a block's activation and pre-activation rows
// (2 × 32 samples × width × 8 B ≈ 16 kB at the paper's width 32) stay
// L1-resident while the layer's weight rows stream over them once each.
const batchBlock = 32

// forwardHiddenGeneric computes one hidden layer of ForwardBatch: for every
// sample s and unit j, pre[s·nout+j] = b[j] + Σ_i w[j·nin+i]·in[s·nin+i],
// summed left to right from the bias, and act[s·nout+j] = relu of it. The
// loop is cache-blocked: weight rows outer, samples inner, so each row
// streams once per batchBlock-sample block instead of once per sample.
func forwardHiddenGeneric(nin int, w, b, in, pre, act []float64) {
	nout := len(b)
	batch := len(pre) / nout
	for s0 := 0; s0 < batch; s0 += batchBlock {
		s1 := s0 + batchBlock
		if s1 > batch {
			s1 = batch
		}
		for j := 0; j < nout; j++ {
			row := w[j*nin : (j+1)*nin]
			bj := b[j]
			// Four samples per iteration against the register-resident
			// weight row: four *independent* accumulators, each fed
			// strictly left to right exactly like the scalar kernel's
			// dot product, so the unroll adds instruction-level
			// parallelism without touching any accumulation order.
			// (Inlined by hand: Go does not inline functions containing
			// loops, and at the paper's tiny input width a call per dot
			// product costs more than the multiply-adds themselves.)
			s := s0
			for ; s+4 <= s1; s += 4 {
				x0 := in[s*nin : (s+1)*nin]
				x0 = x0[:len(row)] // bounds-check elimination
				x1 := in[(s+1)*nin : (s+2)*nin]
				x1 = x1[:len(x0)]
				x2 := in[(s+2)*nin : (s+3)*nin]
				x2 = x2[:len(x0)]
				x3 := in[(s+3)*nin : (s+4)*nin]
				x3 = x3[:len(x0)]
				sum0, sum1, sum2, sum3 := bj, bj, bj, bj
				for i, r := range row {
					sum0 += r * x0[i]
					sum1 += r * x1[i]
					sum2 += r * x2[i]
					sum3 += r * x3[i]
				}
				o := s*nout + j
				pre[o] = sum0
				act[o] = relu(sum0)
				o += nout
				pre[o] = sum1
				act[o] = relu(sum1)
				o += nout
				pre[o] = sum2
				act[o] = relu(sum2)
				o += nout
				pre[o] = sum3
				act[o] = relu(sum3)
			}
			for ; s < s1; s++ {
				sum := dotAcc(bj, row, in[s*nin:(s+1)*nin])
				o := s*nout + j
				pre[o] = sum
				act[o] = relu(sum)
			}
		}
	}
}

// seedDeltaGeneric seeds the delta matrix below the output layer: per
// sample, the single nonzero output delta gs[s] times the taken action's
// weight row, masked by the ReLU derivative of the layer below —
// delta[s·nin+i] = reluMask(gs[s]·w[actions[s]·nin+i], pre[s·nin+i]), the
// same per-sample arithmetic as BackwardScalar, including for gs[s] == 0
// (the products are still formed; gradHidden skips the exact zeros).
// Every action is in range: BackwardBatch checked them all.
func seedDeltaGeneric(nin int, w, gs []float64, actions []int, pre, delta []float64) {
	for s, g := range gs {
		a := actions[s]
		wrow := w[a*nin : (a+1)*nin]
		drow := delta[s*nin : (s+1)*nin]
		prow := pre[s*nin : (s+1)*nin]
		prow = prow[:len(drow)] // bounds-check elimination
		wrow = wrow[:len(drow)]
		for i := range drow {
			drow[i] = reluMask(g*wrow[i], prow[i])
		}
	}
}

// gradHiddenGeneric accumulates one hidden layer's parameter gradient over
// the batch: for every sample s in ascending order and every unit j whose
// delta d = delta[s·nout+j] is not an exact zero (zeroGrad),
// gb[j] += d and gw[j·nin+i] += d·in[s·nin+i].
//
// Samples are outermost: every accumulator cell receives its per-sample
// contributions in ascending s — the scalar path's order — while
// consecutive touches of any gradient row are separated by a full unit
// loop, so the load-add-store chains on the (L1-resident) gradient matrix
// never stall on store forwarding. The per-unit axpy is inlined by hand:
// Go does not inline functions containing loops, and at the paper's input
// width a call per row would cost more than the multiply-adds.
func gradHiddenGeneric(nin int, delta, in, gw, gb []float64) {
	nout := len(gb)
	batch := len(delta) / nout
	for s := 0; s < batch; s++ {
		x := in[s*nin : (s+1)*nin]
		drow := delta[s*nout : (s+1)*nout]
		for j, d := range drow {
			if zeroGrad(d) { // exact zero skip: ReLU-dead units contribute nothing
				continue
			}
			gb[j] += d
			row := gw[j*nin : (j+1)*nin]
			row = row[:len(x)] // bounds-check elimination
			for i, xi := range x {
				row[i] += d * xi
			}
		}
	}
}
