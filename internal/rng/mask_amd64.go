package rng

// fillBernoulliAVX2 writes len(dst) aligned mask words: the words
// FillBernoulli's portable loop writes from a Block whose next draw is
// stripe 0, with the stripes advanced by 16·len(dst) draws each.
// rawThr is the threshold shifted into the raw draw's range (thr<<11).
//
//go:noescape
func fillBernoulliAVX2(lanes *[blockStripes]Stream, dst []uint64, rawThr uint64)
