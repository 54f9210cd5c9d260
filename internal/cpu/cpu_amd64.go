package cpu

// HasAVX2 reports whether this CPU and OS run AVX2 code. It is read
// once, at start-up, from CPUID and XCR0.
var HasAVX2 = detectAVX2()

// detectAVX2 requires CPUID leaf 7, AVX and OSXSAVE in leaf 1 ECX, the
// OS saving the XMM and YMM state (XCR0 bits 1 and 2), and AVX2 in
// leaf 7 EBX.
func detectAVX2() bool {
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5
		ymmXmm  = 1<<1 | 1<<2
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXmm != ymmXmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
