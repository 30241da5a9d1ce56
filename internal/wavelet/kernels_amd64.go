package wavelet

// analyze8 writes 8·blocks approximation and detail outputs of one
// analysis split to a and d from x, with no bounds checks; see
// kernels_amd64.s.
//
//go:noescape
func analyze8(a, d, x, h, g []float32, blocks int)

// synthesize8 writes 16·blocks synthesis outputs to dst from the
// approximation a and detail d, with no bounds checks; see
// kernels_amd64.s.
//
//go:noescape
func synthesize8(dst, a, d, h, g []float32, blocks int)
