// Package cpu reports the instruction-set extensions the process may
// use, read once at start-up. It is the one place the module asks the
// CPU what it can run: rng's mutation-mask kernel and stga's fitness
// decode kernel both take their vector path only where HasAVX2 holds,
// and run their portable Go loops everywhere else.
//
// DESIGN.md §1.1 inventory row: one start-up CPUID/XGETBV check for AVX2, read by the rng and stga kernels.
package cpu
