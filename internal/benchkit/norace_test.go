//go:build !race

package benchkit

const raceEnabled = false
