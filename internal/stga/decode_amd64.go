package stga

// decode4 is the zero-weight makespan decode of four chromosomes at
// once (decode_amd64.s): out[c] is what makespanFitness returns for the
// n genes at genes[c], given ETC rows at stride laneSites and the padded
// base vector. Genes are only compared with lane indices, never used
// to address memory. Callers must pass stage's gate first.
//
//go:noescape
func decode4(genes *[4]*int, n int, rows *float64, base *[laneSites]float64, out *[4]float64)
