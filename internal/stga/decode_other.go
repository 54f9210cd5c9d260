//go:build !amd64

package stga

// Off amd64 cpu.HasAVX2 is false and every round takes the scalar
// decode; this stub only satisfies the compiler.
func decode4(genes *[4]*int, n int, rows *float64, base *[laneSites]float64, out *[4]float64) {
	panic("stga: no vector decode kernel on this architecture")
}
