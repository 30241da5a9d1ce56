package wavelet

import "csecg/internal/linalg"

// Fig. 5 of the paper compares two ways to vectorize the two-level
// filter-bank loop nest: vectorizing the inner (tap) loop costs extra
// cross-lane add instructions per output, while vectorizing the outer
// (output) loop keeps four independent accumulators and needs none.
// Fig. 3 peels the outputs whose taps wrap around the block end out of
// the main loop.
//
// analyzeSplit and synthesizeSplit are the production kernels of
// Transform. Both take the outer-loop shape and keep the scalar loop's
// summation order for every output, so the transform is bit-identical
// to the plain reference loops (wavelet tests pin this with
// Float32bits/Float64bits comparisons). analyzeSplit needs no peeling:
// it reads a periodically extended copy of its block, so no output
// wraps. synthesizeSplit still peels its first taps−2 outputs, whose
// reference order adds the wrapped contributions last. At float32 on a
// CPU with AVX2, everything else runs 8 lanes wide in the kernels of
// kernels.go, in the same order. The scalar, inner-loop and peeled
// analysis shapes the paper compares live with the loop-shape tests
// and benchmarks.

// analyzeSplit performs one analysis split of a block of length n:
// dst[:n/2] receives the approximation and dst[n/2:n] the detail. x is
// the block's periodic extension, its n samples followed by its first
// taps−2 again, so output k reads x[2k : 2k+taps] without wrapping. The
// filters h and g have equal length, at most n.
func analyzeSplit[T linalg.Float](dst, x, h, g []T) {
	half := len(dst) / 2
	taps := len(h)
	g = g[:taps]
	x = x[:2*half+taps-2]
	k := analyzeKernel(dst, x, h, g)
	for ; k+4 <= half; k += 4 {
		x0 := x[2*k:][:taps]
		x1 := x[2*k+2:][:taps]
		x2 := x[2*k+4:][:taps]
		x3 := x[2*k+6:][:taps]
		var a0, a1, a2, a3 T
		var d0, d1, d2, d3 T
		for i, hi := range h {
			gi := g[i]
			v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
			a0 += hi * v0
			a1 += hi * v1
			a2 += hi * v2
			a3 += hi * v3
			d0 += gi * v0
			d1 += gi * v1
			d2 += gi * v2
			d3 += gi * v3
		}
		dst[k], dst[k+1], dst[k+2], dst[k+3] = a0, a1, a2, a3
		dst[half+k], dst[half+k+1], dst[half+k+2], dst[half+k+3] = d0, d1, d2, d3
	}
	for ; k < half; k++ {
		xs := x[2*k : 2*k+taps]
		var a, d T
		for i, hi := range h {
			v := xs[i]
			a += hi * v
			d += g[i] * v
		}
		dst[k] = a
		dst[half+k] = d
	}
}

// synthesizeSplit is the exact transpose of analyzeSplit: it rebuilds
// the block dst of length 2·len(a) from the approximation a and the
// detail d. It gathers rather than scatters: output j sums the
// contributions h[i]·a[k] + g[i]·d[k] with 2k+i ≡ j (mod n) in
// ascending k, the order in which the scalar scatter loop adds them.
// Interior outputs advance in the outer-loop shape, two output pairs
// per block; the first taps−2 outputs, which also receive the wrapped
// taps of the last inputs, are peeled into a head loop.
func synthesizeSplit[T linalg.Float](dst, a, d, h, g []T) {
	n := len(dst)
	half := n / 2
	taps := len(h)
	g = g[:taps]
	hp := taps / 2 // contributions per output
	d = d[:len(a)]
	// Outputs 2p and 2p+1 gather inputs k = p−hp+1 … p (mod half). For
	// the head pairs p < hp−1 that wraps: term t reads input t while
	// t ≤ p and the wrapped input half−hp+t after, ascending k as the
	// scatter adds them. The terms run outermost, so the head's sums,
	// one chain of dependent adds each, advance side by side.
	head := dst[:taps-2]
	clear(head)
	for t := 0; t < hp; t++ {
		for p := 0; p < hp-1; p++ {
			k, ie := t, 2*(p-t)
			if t > p {
				k, ie = half-hp+t, ie+taps
			}
			av, dv := a[k], d[k]
			head[2*p] += h[ie]*av + g[ie]*dv
			head[2*p+1] += h[ie+1]*av + g[ie+1]*dv
		}
	}
	p := hp - 1
	p += synthesizeKernel(dst, a, d, h, g, p)
	for ; p+2 <= half; p += 2 {
		as := a[p-hp+1:][:hp+1]
		ds := d[p-hp+1:][:hp+1]
		var e0, o0, e1, o1 T
		for q, ie := 0, taps-2; q < hp; q, ie = q+1, ie-2 {
			hE, hO, gE, gO := h[ie], h[ie+1], g[ie], g[ie+1]
			av0, dv0, av1, dv1 := as[q], ds[q], as[q+1], ds[q+1]
			e0 += hE*av0 + gE*dv0
			o0 += hO*av0 + gO*dv0
			e1 += hE*av1 + gE*dv1
			o1 += hO*av1 + gO*dv1
		}
		dst[2*p], dst[2*p+1], dst[2*p+2], dst[2*p+3] = e0, o0, e1, o1
	}
	for ; p < half; p++ {
		as := a[p-hp+1 : p+1]
		ds := d[p-hp+1 : p+1]
		var e, o T
		for q := 0; q < hp; q++ {
			ie := taps - 2 - 2*q
			e += h[ie]*as[q] + g[ie]*ds[q]
			o += h[ie+1]*as[q] + g[ie+1]*ds[q]
		}
		dst[2*p], dst[2*p+1] = e, o
	}
}
