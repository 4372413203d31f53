//go:build !race

package doclint

// raceEnabled reports a build under the race detector.
const raceEnabled = false
