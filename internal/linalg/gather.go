package linalg

import "fmt"

// HasAVX2 reports whether the float32 AVX2 kernels run on this CPU: an
// amd64 processor with AVX2 whose operating system saves the YMM
// registers. It is decided once, at package init, from CPUID and
// XGETBV, and is false on every other GOARCH. Callers dispatch on it
// together with the element type; float64 always takes the Go loops.
func HasAVX2() bool { return hasAVX2 }

// Gather8 is a sparse 0/1 pattern in compressed-row form, copied into
// groups of 8 rows for the AVX2 gather kernels. Lane l of group k is
// row 8k+l; step s of the group holds the s-th source index of each of
// its 8 rows, so one VGATHERDPS loads one term of 8 independent sums.
// Rows shorter than their group's longest are padded with index −1,
// which the kernels mask out: a masked lane loads +0, and adding +0
// leaves a sum that started at +0 unchanged bit for bit. Each lane
// therefore adds its row's terms in the order the CSR lists them,
// exactly like the scalar loop over that row.
type Gather8 struct {
	idx   []int32 // 8 lane indices per step, groups back to back; −1 pads
	steps []int32 // steps of each group: its longest row
	tail  int     // offset in idx of the last, partial group
	out   int     // rows
	in    int     // length of the source vector the indices point into
}

// NewGather8 lays out the pattern whose row o reads the source entries
// idx[ptr[o]:ptr[o+1]] in that order, over a source of length in. It
// returns an error if ptr is not a non-decreasing offset table into
// idx or an index lies outside [0, in). The kernels run only where
// HasAVX2 reports true.
func NewGather8(in int, ptr, idx []int32) (*Gather8, error) {
	if len(ptr) < 1 || ptr[0] != 0 || int(ptr[len(ptr)-1]) != len(idx) {
		return nil, fmt.Errorf("linalg: Gather8 offset table does not span the %d indices", len(idx))
	}
	for _, c := range idx {
		if c < 0 || int(c) >= in {
			return nil, fmt.Errorf("linalg: Gather8 index %d outside [0, %d)", c, in)
		}
	}
	out := len(ptr) - 1
	groups := (out + 7) / 8
	g := &Gather8{steps: make([]int32, groups), out: out, in: in}
	total := 0
	for k := range g.steps {
		for o := 8 * k; o < min(8*k+8, out); o++ {
			if ptr[o+1] < ptr[o] {
				return nil, fmt.Errorf("linalg: Gather8 offsets decrease at row %d", o)
			}
			g.steps[k] = max(g.steps[k], ptr[o+1]-ptr[o])
		}
		if k == out/8 {
			g.tail = 8 * total
		}
		total += int(g.steps[k])
	}
	g.idx = make([]int32, 8*total)
	at := 0
	for k, s := range g.steps {
		for step := int32(0); step < s; step++ {
			for l := 0; l < 8; l++ {
				g.idx[at+l] = -1
				if o := 8*k + l; o < out && ptr[o]+step < ptr[o+1] {
					g.idx[at+l] = idx[ptr[o]+step]
				}
			}
			at += 8
		}
	}
	return g, nil
}

// Sum sets dst[o] = (Σ src[i] over row o) · scale: each row sums its
// terms from +0 in CSR order and is scaled once, as the scalar loop
// `acc += src[i]` followed by `dst[o] = acc * scale` does. It panics if
// dst does not have one entry per row or src is not the source length.
func (g *Gather8) Sum(dst, src []float32, scale float32) {
	g.check(dst, src)
	full := g.out / 8
	gatherSum8(dst, src, g.idx, g.steps, full, scale)
	if g.out%8 != 0 {
		var tail [8]float32
		gatherSum8(tail[:], src, g.idx[g.tail:], g.steps[full:], 1, scale)
		copy(dst[8*full:], tail[:])
	}
}

// SumScaled sets dst[o] = Σ (src[i] · scale) over row o: each term is
// scaled before it is added, in CSR order from +0, as a scatter loop
// `dst[o] += src[i] * scale` over the same rows does. It panics like
// Sum.
func (g *Gather8) SumScaled(dst, src []float32, scale float32) {
	g.check(dst, src)
	full := g.out / 8
	gatherSumScaled8(dst, src, g.idx, g.steps, full, scale)
	if g.out%8 != 0 {
		var tail [8]float32
		gatherSumScaled8(tail[:], src, g.idx[g.tail:], g.steps[full:], 1, scale)
		copy(dst[8*full:], tail[:])
	}
}

func (g *Gather8) check(dst, src []float32) {
	if len(dst) != g.out || len(src) != g.in {
		panic("linalg: Gather8 dimension mismatch")
	}
}
