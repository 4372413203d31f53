//go:build !race

package serve

// raceEnabled reports a build under the race detector, whose sync.Pool
// drops a share of the values put back.
const raceEnabled = false
