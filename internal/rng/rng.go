package rng

import (
	"fmt"
	"math"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding only.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashLabel folds a label string into a 64-bit value (FNV-1a).
func hashLabel(label string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return h
}

// Stream is a deterministic pseudo-random stream (xoshiro256**).
// It is not safe for concurrent use; derive one stream per goroutine.
// The four state words are named fields rather than an array so the
// Uint64 step stays within the compiler's inlining budget (see Uint64).
type Stream struct {
	s0, s1, s2, s3 uint64
}

// New creates a stream from a 64-bit seed. Any seed, including zero, yields
// a valid, well-mixed state.
func New(seed uint64) *Stream {
	sm := seed
	return &Stream{
		s0: splitMix64(&sm),
		s1: splitMix64(&sm),
		s2: splitMix64(&sm),
		s3: splitMix64(&sm),
	}
}

// Derive returns an independent child stream identified by label. The same
// (parent seed, label) pair always yields the same child stream.
func (r *Stream) Derive(label string) *Stream {
	// Mix the parent's *initial-equivalent* entropy with the label hash.
	// We hash the current state so sibling derivations at different times
	// differ; callers wanting stable siblings should derive all children
	// up front (the simulator does).
	seed := r.s0 ^ (r.s1 << 1) ^ hashLabel(label)
	return New(seed)
}

// DeriveIndexed returns an independent child stream identified by a label
// and an integer index, e.g. one stream per site or per batch.
func (r *Stream) DeriveIndexed(label string, index int) *Stream {
	return r.Derive(fmt.Sprintf("%s/%d", label, index))
}

// Fork returns the i-th member of a family of independent child streams
// rooted at the receiver's current state. Unlike Derive it takes no
// label and does not format strings, so it is cheap enough to call once
// per worker per batch. Fork is a pure function of (state, i): it never
// advances the parent, so a master stream can hand decorrelated streams
// to any number of parallel workers without perturbing its own future
// output — the discipline that keeps parallel and serial execution
// bit-identical.
func (r *Stream) Fork(i int) *Stream {
	// Fold the full 256-bit state and the index into a SplitMix64 seed.
	// The rotations keep sibling states from cancelling; the golden-ratio
	// multiplier separates adjacent indices by a full avalanche.
	sm := r.s0 ^ rotl(r.s1, 13) ^ rotl(r.s2, 27) ^ rotl(r.s3, 41) ^
		(uint64(i)+1)*0x9e3779b97f4a7c15
	return &Stream{
		s0: splitMix64(&sm),
		s1: splitMix64(&sm),
		s2: splitMix64(&sm),
		s3: splitMix64(&sm),
	}
}

// jumpPoly is the xoshiro256** 2^128-step jump polynomial.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the stream by 2^128 steps in O(256) work. 2^128
// non-overlapping subsequences of length 2^128 each make Jump the
// classical partitioning alternative to Fork when a caller wants
// provably disjoint output ranges rather than hash-decorrelated ones.
func (r *Stream) Jump() {
	var s0, s1, s2, s3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= r.s0
				s1 ^= r.s1
				s2 ^= r.s2
				s3 ^= r.s3
			}
			r.Uint64()
		}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits. The body is the
// standard xoshiro256** step spelled out with locals and literal
// rotations so it fits the compiler's inlining budget: Bool/Float64/
// Intn sit in the GA's per-gene hot loops (mutation alone draws one
// Bool per gene per individual per generation), and inlining the whole
// chain removes a call per draw. The state transition is identical to
// the textbook formulation, so every stream produces the same sequence
// as before.
func (r *Stream) Uint64() uint64 {
	s1 := r.s1
	x := s1 * 5
	result := ((x << 7) | (x >> 57)) * 9
	s2 := r.s2 ^ r.s0
	s3 := r.s3 ^ s1
	r.s1 = s1 ^ s2
	r.s0 ^= s3
	r.s2 = s2 ^ (s1 << 17)
	r.s3 = (s3 << 45) | (s3 >> 19)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless method with rejection for exactness.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask32
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask32) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, as in math/rand.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bernoulli is a precomputed Bool(p): Hit consumes exactly the draws
// Bool(p) would and returns the identical answer, but replaces the
// per-draw float conversion, division and comparison with one integer
// compare against a precomputed threshold. Build one outside a hot loop
// (the GA's mutation operator draws one Bool per gene per individual
// per generation, which makes Bool the single hottest call in the
// repository).
type Bernoulli struct {
	threshold     uint64
	always, never bool
}

// NewBernoulli precomputes the comparator for probability p.
//
// Bool's draw is Float64() < p with Float64() = y/2^53 for the integer
// y = Uint64()>>11, and division by 2^53 is exact, so the draw hits iff
// y < p·2^53 in real arithmetic — iff y < ⌈p·2^53⌉ for integer y.
// Ldexp(p, 53) scales by a power of two, which is also exact for every
// p in (0, 1), so the threshold below is the exact ceiling and Hit
// reproduces Bool bit-for-bit. A NaN p draws and never hits under
// Bool; converting NaN to uint64 is not portable (2⁶³ on amd64, 0 on
// 386), so it gets the zero threshold explicitly.
func NewBernoulli(p float64) Bernoulli {
	if p != p {
		return Bernoulli{}
	}
	if p <= 0 {
		return Bernoulli{never: true}
	}
	if p >= 1 {
		return Bernoulli{always: true}
	}
	return Bernoulli{threshold: uint64(math.Ceil(math.Ldexp(p, 53)))}
}

// Hit draws from r and reports success. It consumes one Uint64 when
// 0 < p < 1 and none otherwise, exactly like Bool(p).
func (b Bernoulli) Hit(r *Stream) bool {
	if b.never {
		return false
	}
	if b.always {
		return true
	}
	return r.Uint64()>>11 < b.threshold
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with rate <= 0")
	}
	// Inverse-CDF; 1-Float64() is in (0,1] so Log never sees zero.
	return -math.Log(1-r.Float64()) / rate
}

// Normal returns a normal variate with the given mean and standard
// deviation (Box–Muller, using a cached second value would break
// determinism under Derive ordering, so we recompute each call).
func (r *Stream) Normal(mean, stddev float64) float64 {
	u1 := 1 - r.Float64() // (0,1]
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normal variate where the underlying normal has
// the given mu and sigma (so the median is exp(mu)).
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// TruncLogNormal returns a log-normal variate clamped to [lo, hi].
func (r *Stream) TruncLogNormal(mu, sigma, lo, hi float64) float64 {
	v := r.LogNormal(mu, sigma)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Level returns a uniformly chosen discrete level in {1, ..., n}.
func (r *Stream) Level(n int) int {
	return 1 + r.Intn(n)
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. It panics if the weights are empty,
// negative, or sum to zero.
func (r *Stream) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: WeightedChoice with negative or NaN weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: WeightedChoice with empty or zero-sum weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1 // float round-off
}
