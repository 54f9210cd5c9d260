// Package benchkit is the benchmark-trajectory harness: a programmatic
// suite of the kernel-path benchmarks (columnar snapshot build, greedy
// heuristics, STGA scheduling, GA fitness path, online engine) and of
// the service around them (event line codec, snapshot write) runnable
// outside `go test` via testing.Benchmark, with a JSON emitter for the
// repository's BENCH_<date>.json trajectory files and a
// benchstat-style regression comparator used by CI (`benchsuite
// -bench-json/-bench-compare`). See DESIGN.md §8.4.
package benchkit
