//go:build race

package benchkit

// raceEnabled reports a -race build, whose detector allocates on its
// own: the allocation pins skip there.
const raceEnabled = true
