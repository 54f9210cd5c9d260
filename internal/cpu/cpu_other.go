//go:build !amd64

package cpu

// HasAVX2 is false off amd64: every kernel runs its portable loop.
const HasAVX2 = false
